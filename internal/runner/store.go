package runner

import (
	"bytes"
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"cwsp/internal/telemetry/live"
	"cwsp/internal/wal"
)

const (
	// storeFile is the store's one log inside its directory. The version
	// in its name orphans caches written by incompatible record layouts
	// (version 1 was 16 JSONL shards, cells-v1-*.jsonl); Compact removes
	// them.
	storeFile = "cells-v2.wal"
	// storeMagic frames every store record ("CWSC" little-endian).
	storeMagic = uint32(0x43535743)
)

// ErrClosed is returned by every mutating Store method after Close. The
// pre-Close behavior was a silent race: a straggling pool worker could Put
// into (or Flush) a store whose owner had already moved on, writing to a
// directory that was supposedly quiescent.
var ErrClosed = errors.New("runner: store is closed")

// record is one log record. The key is stored alongside the signature
// purely for human inspection of cache files; lookups go through the
// signature alone.
type record struct {
	Sig string          `json:"sig"`
	Key Key             `json:"key"`
	Val json.RawMessage `json:"val"`
}

// recSize approximates one record's on-disk footprint for the eviction
// budget without marshaling on every Put.
func recSize(r record) int64 {
	k := r.Key
	return int64(2*len(r.Sig)+len(r.Val)+
		len(k.Kind)+len(k.Workload)+len(k.Scale)+len(k.Compile)+
		len(k.Scheme)+len(k.CfgSig)+len(k.Salt)) + 96
}

// lruEntry is one cached record plus its budget charge; list order is
// recency (front = most recently used).
type lruEntry struct {
	rec    record
	size   int64
	logged bool // the log holds this record as it is now
}

// Store is the persistent result cache: one sealed append log
// (internal/wal, cells-v2.wal) of {sig, key, val} records, one per
// completed cell, keyed by content signature. All methods are safe for
// concurrent use, and exactly one live handle may own a directory at a
// time (a flock(2)-held lock file keeps a daemon and ad-hoc CLI runs from
// interleaving writes; the kernel releases a dead owner's lock
// automatically).
//
// Puts accumulate in memory. Flush appends the records put since the last
// flush, and rewrites the log from the live set only when a record the log
// holds was evicted or replaced since, so after every Flush the log holds
// exactly the live records. A plain flush does not fsync: the store is a
// cache, a lost tail only means its cells are recomputed, and the seal
// keeps a damaged record from being served — replay trusts the longest
// prefix of records that verify, so a crash mid-flush leaves a consistent
// cache holding all work flushed before it.
//
// For service life the store also supports compaction (Compact: rewrite
// the log, remove other cache generations) and size-bounded LRU eviction
// keyed on the content signature (SetMaxBytes): the shared cache of a
// long-running daemon converges to the working set instead of growing
// without bound.
type Store struct {
	log *wal.Log

	mu       sync.Mutex
	entries  map[string]*list.Element // signature → element (*lruEntry)
	lru      *list.List               // front = most recently used
	unlogged []*list.Element          // records new since the last flush, in put order
	stale    bool                     // a logged record was evicted or replaced since the last flush
	loaded   int                      // records read from disk at Open
	bytes    int64                    // approximate footprint of entries
	maxBytes int64                    // 0 = unbounded
	evicted  int64
	closed   bool
	bus      *live.Bus // optional flush-event sink
}

// SetBus attaches a live event bus; every Flush that writes publishes a
// StoreFlush event (records now on disk).
func (s *Store) SetBus(b *live.Bus) {
	s.mu.Lock()
	s.bus = b
	s.mu.Unlock()
}

// OpenStore opens (creating if needed) the cache directory, acquires its
// lock, and replays the log. A record that fails its seal or does not
// parse ends the trusted prefix: it and everything after it are dropped,
// to be recomputed. Caches of other store versions are not read. A
// directory owned by another live Store handle fails with *wal.LockError
// (errors.Is wal.ErrLocked); the kernel releases a dead process's lock
// with its descriptors, so crashed owners never wedge the directory.
func OpenStore(dir string) (*Store, error) {
	s := &Store{entries: map[string]*list.Element{}, lru: list.New()}
	log, err := wal.Open(dir, storeFile, storeMagic, s.replay)
	if err != nil {
		return nil, err
	}
	s.log = log
	s.loaded = len(s.entries)
	return s, nil
}

// replay loads one record from the log at Open.
func (s *Store) replay(payload []byte) bool {
	var r record
	if err := json.Unmarshal(payload, &r); err != nil || r.Sig == "" {
		return false
	}
	s.insertLocked(r, true)
	return true
}

// insertLocked adds or supersedes one record at the MRU position. A new
// value for a record the log holds makes the log stale.
func (s *Store) insertLocked(r record, logged bool) {
	el, ok := s.entries[r.Sig]
	if !ok {
		e := &lruEntry{rec: r, size: recSize(r), logged: logged}
		el = s.lru.PushFront(e)
		s.entries[r.Sig] = el
		s.bytes += e.size
		if !logged {
			s.unlogged = append(s.unlogged, el)
		}
		return
	}
	s.lru.MoveToFront(el)
	e := el.Value.(*lruEntry)
	if bytes.Equal(e.rec.Val, r.Val) {
		return
	}
	s.stale = s.stale || e.logged
	s.bytes -= e.size
	e.rec, e.size, e.logged = r, recSize(r), logged
	s.bytes += e.size
}

// evictLocked drops least-recently-used records until the footprint fits
// the budget (always retaining at least one record, so a single oversized
// result cannot wedge the cache into thrashing). Evicting a logged record
// makes the log stale, so the next Flush removes it from disk too.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes && s.lru.Len() > 1 {
		el := s.lru.Back()
		e := el.Value.(*lruEntry)
		s.lru.Remove(el)
		delete(s.entries, e.rec.Sig)
		s.bytes -= e.size
		s.evicted++
		s.stale = s.stale || e.logged
	}
}

// SetMaxBytes bounds the cache's approximate in-memory/on-disk footprint;
// 0 removes the bound. Shrinking below the current footprint evicts
// immediately (least recently used first).
func (s *Store) SetMaxBytes(n int64) {
	s.mu.Lock()
	s.maxBytes = n
	s.evictLocked()
	s.mu.Unlock()
}

// Dir returns the cache directory.
func (s *Store) Dir() string { return s.log.Dir() }

// Len returns the number of cached results (disk + pending).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Loaded returns how many records the store held when opened.
func (s *Store) Loaded() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loaded
}

// Bytes returns the approximate footprint of the cached records.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Evicted returns how many records LRU eviction has dropped.
func (s *Store) Evicted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// StoreStats digests the store for service endpoints and manifests.
type StoreStats struct {
	Dir      string `json:"dir"`
	Records  int    `json:"records"`
	Loaded   int    `json:"loaded"`
	Bytes    int64  `json:"bytes"`
	MaxBytes int64  `json:"max_bytes,omitempty"`
	Evicted  int64  `json:"evicted,omitempty"`
}

// Stats returns a point-in-time digest.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Dir: s.log.Dir(), Records: len(s.entries), Loaded: s.loaded,
		Bytes: s.bytes, MaxBytes: s.maxBytes, Evicted: s.evicted,
	}
}

// Get returns the cached result for a signature (and refreshes its
// recency). A closed store misses everything rather than erroring: reads
// during teardown degrade to recomputes, not corruption.
func (s *Store) Get(sig string) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	el, ok := s.entries[sig]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*lruEntry).rec.Val, true
}

// Put records a result; it reaches disk on the next Flush. Returns
// ErrClosed after Close.
func (s *Store) Put(key Key, val json.RawMessage) error {
	sig := key.Signature()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.insertLocked(record{Sig: sig, Key: key, Val: val}, false)
	s.evictLocked()
	return nil
}

// Flush writes the records put since the last flush: it appends them, or,
// when the log is stale, rewrites it from the live set, least recently
// used first, so a reopen restores the recency order too. The store lock
// is held across the write: a Put racing a concurrent flush must not be
// marked logged without its record reaching disk. Returns ErrClosed after
// Close.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	var els []*list.Element
	if s.stale {
		for el := s.lru.Back(); el != nil; el = el.Prev() {
			els = append(els, el)
		}
	} else {
		for _, el := range s.unlogged {
			if s.entries[el.Value.(*lruEntry).rec.Sig] == el { // not evicted
				els = append(els, el)
			}
		}
	}
	if len(els) == 0 && !s.stale {
		s.unlogged = nil
		return nil
	}
	payloads := make([][]byte, len(els))
	for i, el := range els {
		b, err := json.Marshal(el.Value.(*lruEntry).rec)
		if err != nil {
			return fmt.Errorf("runner: flush: %w", err)
		}
		payloads[i] = b
	}
	var err error
	if s.stale {
		err = s.log.Rewrite(payloads)
	} else {
		err = s.log.Append(payloads, false)
	}
	if err != nil {
		return fmt.Errorf("runner: flush: %w", err)
	}
	for _, el := range els {
		el.Value.(*lruEntry).logged = true
	}
	s.unlogged, s.stale = nil, false
	if s.bus != nil {
		s.bus.Publish(live.Event{Kind: live.StoreFlush, Records: len(s.entries)})
	}
	return nil
}

// CompactStats reports what one Compact pass rewrote.
type CompactStats struct {
	// Records is the live record count the log holds after the pass.
	Records int `json:"records"`
	// Bytes is the log's size after the pass.
	Bytes int64 `json:"bytes"`
	// OrphanFiles counts removed files of other store versions and temp
	// files of cut-short rewrites.
	OrphanFiles int `json:"orphan_files,omitempty"`
}

// Compact rewrites the log from the live record set and removes every
// other cells-* file in the directory: caches of other store versions
// (orphaned generations, such as the cells-v1-*.jsonl shards of the
// previous layout) and temp files a crash left mid-rewrite. A daemon runs
// this periodically so a cache that has lived through store-version bumps
// converges back to exactly its live records.
func (s *Store) Compact() (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return CompactStats{}, ErrClosed
	}
	s.stale = true
	if err := s.flushLocked(); err != nil {
		return CompactStats{}, err
	}
	st := CompactStats{Records: len(s.entries), Bytes: s.log.Size()}
	ents, err := os.ReadDir(s.log.Dir())
	if err != nil {
		return st, fmt.Errorf("runner: compact: %w", err)
	}
	for _, de := range ents {
		if name := de.Name(); name != storeFile && strings.HasPrefix(name, "cells-") && !de.IsDir() {
			if err := os.Remove(filepath.Join(s.log.Dir(), name)); err != nil {
				return st, fmt.Errorf("runner: compact: %w", err)
			}
			st.OrphanFiles++
		}
	}
	return st, nil
}

// Close flushes pending records, marks the store closed (subsequent Put
// and Flush return ErrClosed, Get misses), and releases the directory
// lock. Closing an already-closed store is a no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.flushLocked()
	s.closed = true
	if cerr := s.log.Close(false); err == nil {
		err = cerr
	}
	return err
}
