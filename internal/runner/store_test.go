package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"cwsp/internal/wal"
)

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := simKey(1)
	if err := s.Put(k, json.RawMessage(`{"cycles":123}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the record survives and no temp files remain.
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Loaded() != 1 {
		t.Fatalf("loaded %d records, want 1", s2.Loaded())
	}
	raw, ok := s2.Get(k.Signature())
	if !ok || string(raw) != `{"cycles":123}` {
		t.Fatalf("get: %q ok=%v", raw, ok)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "LOCK" && e.Name() != storeFile {
			t.Fatalf("unexpected store file %s", e.Name())
		}
	}
}

// The store used to spread its records over 16 shard files; it is now one
// log, however many signature prefixes its keys cover.
func TestStoreSharding(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Enough keys to cover many signature prefixes.
	for i := 0; i < 64; i++ {
		s.Put(simKey(i), json.RawMessage(`1`))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var logs int
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "cells-v") {
			logs++
		}
	}
	if logs != 1 {
		t.Fatalf("store wrote %d files, want its one log", logs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 64 {
		t.Fatalf("reloaded %d records, want 64", s2.Len())
	}
}

func TestStoreSkipsCorruptLines(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	s.Put(simKey(0), json.RawMessage(`7`))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn append at the end of the log: a frame cut short.
	frame := wal.AppendFrame(nil, storeMagic, []byte(`{"sig":"torn","val":1}`))
	f, err := os.OpenFile(filepath.Join(dir, storeFile), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(frame[:len(frame)-3])
	f.Close()

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Loaded() != 1 {
		t.Fatalf("loaded %d, want 1 (corrupt tail skipped)", s2.Loaded())
	}
}

func TestPoolServesFromStoreAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	mk := func() []Cell[int] {
		var cells []Cell[int]
		for i := 0; i < 8; i++ {
			i := i
			cells = append(cells, Cell[int]{Key: simKey(i), Run: func() (int, error) {
				runs.Add(1)
				return i * 10, nil
			}})
		}
		return cells
	}

	p1 := NewPool[int](Options{Jobs: 4, Store: store, Reuse: true})
	out1, err := p1.Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 8 {
		t.Fatalf("cold run executed %d, want 8", runs.Load())
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh store handle, fresh pool: everything is a cache hit.
	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p2 := NewPool[int](Options{Jobs: 4, Store: store2, Reuse: true})
	out2, err := p2.Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 8 {
		t.Fatalf("warm run executed %d more cells", runs.Load()-8)
	}
	if p2.Progress().Hits() != 8 || p2.Progress().Executed() != 0 {
		t.Fatalf("warm run hits=%d executed=%d", p2.Progress().Hits(), p2.Progress().Executed())
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("out mismatch at %d: %d vs %d", i, out1[i], out2[i])
		}
	}

	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}

	// Reuse=false refreshes: every cell recomputes despite the warm store.
	store3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store3.Close()
	p3 := NewPool[int](Options{Jobs: 4, Store: store3, Reuse: false})
	if _, err := p3.Run(mk()); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 16 {
		t.Fatalf("refresh run executed %d total, want 16", runs.Load())
	}
}

func TestPoolFlushEveryPersistsPartialSweeps(t *testing.T) {
	dir := t.TempDir()
	store, _ := OpenStore(dir)
	p := NewPool[int](Options{Jobs: 1, Store: store, Reuse: true, FlushEvery: 1})
	// Cell 3 fails; cells 0..2 must already be on disk.
	var cells []Cell[int]
	for i := 0; i < 3; i++ {
		i := i
		cells = append(cells, Cell[int]{Key: simKey(i), Run: func() (int, error) { return i, nil }})
	}
	cells = append(cells, Cell[int]{Key: simKey(3), Run: func() (int, error) {
		panic("power cut")
	}})
	if _, err := p.Run(cells); err == nil {
		t.Fatal("want error")
	}
	// Drop the handle without Close: the on-disk lock left behind belongs to
	// this (live) process, so reopening must still conflict...
	if _, err := OpenStore(dir); !errors.Is(err, wal.ErrLocked) {
		t.Fatalf("reopen with live lock: err=%v, want ErrLocked", err)
	}
	// ...until the owner releases it.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.Loaded() != 3 {
		t.Fatalf("resumable store holds %d records, want 3", resumed.Loaded())
	}
}

// editValue rewrites the first occurrence of old in the store's files on
// disk, in place and at the same length, so the damaged record still
// parses as JSON.
func editValue(t *testing.T, dir, old, new string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.Index(b, []byte(old)); i >= 0 && strings.HasPrefix(e.Name(), "cells-") {
			copy(b[i:], new)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("%q is in no store file", old)
}

// A record whose bytes changed on disk but still parse is never served:
// the seal fails, and the record leaves the trusted prefix.
func TestStoreNeverServesDamagedRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := simKey(1)
	if err := s.Put(k, json.RawMessage(`{"cycles":123}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	editValue(t, dir, `"cycles":123`, `"cycles":124`)

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if raw, ok := s2.Get(k.Signature()); ok {
		t.Fatalf("damaged record served: %s", raw)
	}
	if s2.Loaded() != 0 {
		t.Fatalf("loaded %d records, want 0", s2.Loaded())
	}
}

// Through the pool: a run after a record was damaged on disk recomputes
// that cell and returns the original results. Damage ends the trusted
// prefix, so the damaged record and every one after it are recomputed;
// one job puts the cells in input order, and the damaged one is last.
func TestPoolRecomputesDamagedRecord(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	mk := func() []Cell[int] {
		var cells []Cell[int]
		for i := 0; i < 4; i++ {
			i := i
			cells = append(cells, Cell[int]{Key: simKey(i), Run: func() (int, error) {
				runs.Add(1)
				return 120 + i, nil
			}})
		}
		return cells
	}
	run := func() ([]int, *Progress) {
		t.Helper()
		store, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		p := NewPool[int](Options{Jobs: 1, Store: store, Reuse: true})
		out, err := p.Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		return out, p.Progress()
	}
	out1, _ := run()
	editValue(t, dir, `"val":123`, `"val":124`)
	out2, prog := run()
	if prog.Executed() != 1 || prog.Hits() != 3 || runs.Load() != 5 {
		t.Fatalf("second run executed %d, hit %d (%d runs in all), want 1 and 3",
			prog.Executed(), prog.Hits(), runs.Load())
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("cell %d: %d after recompute, want %d", i, out2[i], out1[i])
		}
	}
}

// A flush with nothing evicted or replaced appends exactly the frames of
// the records put since the previous flush: the bytes already on disk are
// not rewritten. Replacing a record rewrites the log from the live set.
func TestStoreFlushAppendsOnlyNewRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, storeFile)
	for i := 0; i < 3; i++ {
		s.Put(simKey(i), json.RawMessage(`1`))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := before
	for i := 3; i < 5; i++ {
		k, v := simKey(i), json.RawMessage(`{"n":2}`)
		s.Put(k, v)
		payload, err := json.Marshal(record{Sig: k.Signature(), Key: k, Val: v})
		if err != nil {
			t.Fatal(err)
		}
		want = wal.AppendFrame(want, storeMagic, payload)
	}
	s.Get(simKey(0).Signature())           // recency alone writes nothing
	s.Put(simKey(1), json.RawMessage(`1`)) // nor does an identical re-put
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, want) {
		t.Fatalf("log after flush: %d bytes, want the %d before plus two frames (%d)",
			len(after), len(before), len(want))
	}

	s.Put(simKey(0), json.RawMessage(`3`))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if raw, ok := s2.Get(simKey(0).Signature()); !ok || string(raw) != `3` || s2.Loaded() != 5 {
		t.Fatalf("after replacing a record: get %q ok=%v, loaded %d, want 3 and 5 records", raw, ok, s2.Loaded())
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(len(want)) {
		t.Fatalf("rewritten log is %d bytes, want the %d of the live records alone", fi.Size(), len(want))
	}
}

// Appends after Compact reach the file the directory names: a reopen finds
// them.
func TestStoreAppendAfterCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(simKey(0), json.RawMessage(`0`))
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Put(simKey(1), json.RawMessage(`1`))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 2; i++ {
		if raw, ok := s2.Get(simKey(i).Signature()); !ok || string(raw) != fmt.Sprint(i) {
			t.Fatalf("record %d after compact+append+reopen: %q ok=%v", i, raw, ok)
		}
	}
}

// A rewrite writes the live set least recently used first, so a reopen
// restores the recency order; evicting a record the log holds removes it
// from disk at the next flush.
func TestStoreRewriteKeepsRecency(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 13; i++ { // equal-size records
		s.Put(simKey(i), json.RawMessage(`1`))
	}
	budget := s.Bytes() * 2 / 3
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Get(simKey(10).Signature()) // least recently used is now 11
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetMaxBytes(budget)
	if _, ok := s2.Get(simKey(11).Signature()); ok || s2.Len() != 2 {
		t.Fatalf("after reopen the budget kept %d records and key 11 ok=%v, want it evicted as least recently used", s2.Len(), ok)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Loaded() != 2 {
		t.Fatalf("log holds %d records after the eviction flushed, want 2", s3.Loaded())
	}
}
