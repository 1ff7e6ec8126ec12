// Package wal is the one durable-record format of the daemon's host files:
// a sealed append-only log in a directory its opener owns. The campaign
// journal (service.Journal) and the result store (runner.Store) are both
// one Log each.
//
// A record is framed as magic u32 | payload length u32 | payload seal u64,
// little-endian, then the payload. The seal is the splitmix64 finalization
// the simulator seals undo-log records with (sim/seal.go), applied per
// payload byte, so a bit flip anywhere in the payload breaks it. Replay
// trusts exactly the longest prefix of frames that verify — the first
// short, foreign, oversized or unsealed frame, or one its reader rejects,
// ends it — and Open truncates everything after, so a torn append is
// dropped and never misparsed: the oldest-bad-record-onward discipline the
// recovery runtime applies to the NVM undo journal.
//
// Durability points are the caller's: Append fsyncs only when asked, and
// Rewrite fsyncs the new file and its directory before it returns.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

const (
	// headerSize is the frame header: magic, payload length, payload seal.
	headerSize = 16
	// maxPayload caps one payload so a corrupt length field cannot drive a
	// giant allocation during replay.
	maxPayload = 64 << 20
)

// seal checksums a payload with splitmix64 finalization, per byte.
func seal(b []byte) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// AppendFrame appends payload's frame under magic to dst.
func AppendFrame(dst []byte, magic uint32, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, magic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint64(dst, seal(payload))
	return append(dst, payload...)
}

// Decode walks the trusted prefix of b: it hands each verified payload
// under magic to read, in order, and stops at the first frame that is
// short, carries another magic, an empty or implausible length, or a
// failing seal, or that read rejects by returning false. It returns the
// prefix's length in bytes. Payloads alias b.
func Decode(b []byte, magic uint32, read func(payload []byte) bool) int {
	off := 0
	for len(b)-off >= headerSize && binary.LittleEndian.Uint32(b[off:]) == magic {
		n := int(binary.LittleEndian.Uint32(b[off+4:]))
		if n <= 0 || n > maxPayload || headerSize+n > len(b)-off {
			break
		}
		payload := b[off+headerSize : off+headerSize+n]
		if seal(payload) != binary.LittleEndian.Uint64(b[off+8:]) || !read(payload) {
			break
		}
		off += headerSize + n
	}
	return off
}

// Log is one open log file. Its methods are not safe for concurrent use:
// each owner serializes them under its own mutex.
type Log struct {
	dir, path string
	magic     uint32
	lock      *os.File // the directory's flock(2)-held LOCK descriptor
	f         *os.File
	size      int64 // end of the trusted prefix: where the next frame goes
	torn      int64
}

// Open opens (creating when needed) dir and its log file name, takes the
// directory's lock, replays the trusted prefix through read, truncates the
// rest, and fsyncs the directory when it created the file. A directory
// owned by another live Log fails with *LockError.
func Open(dir, name string, magic uint32, read func(payload []byte) bool) (*Log, error) {
	if dir == "" {
		return nil, errors.New("wal: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, path: filepath.Join(dir, name), magic: magic, lock: lock}
	b, err := os.ReadFile(l.path)
	created := os.IsNotExist(err)
	if err == nil || created {
		l.size = int64(Decode(b, magic, read))
		l.torn = int64(len(b)) - l.size
		l.f, err = os.OpenFile(l.path, os.O_CREATE|os.O_RDWR, 0o644)
	}
	if err == nil && l.torn > 0 {
		err = l.f.Truncate(l.size)
	}
	if err == nil && created {
		err = syncDir(dir)
	}
	if err != nil {
		l.Close(false)
		return nil, fmt.Errorf("wal: open %s: %w", l.path, err)
	}
	return l, nil
}

// Append writes one frame per payload at the end of the trusted prefix,
// then fsyncs when sync is set. A failed append truncates what it wrote,
// so the next one still extends the trusted prefix.
func (l *Log) Append(payloads [][]byte, sync bool) error {
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, l.magic, p)
	}
	_, err := l.f.WriteAt(buf, l.size)
	if err == nil && sync {
		err = l.f.Sync()
	}
	if err != nil {
		l.f.Truncate(l.size)
		return fmt.Errorf("wal: append %s: %w", l.path, err)
	}
	l.size += int64(len(buf))
	return nil
}

// Rewrite replaces the log with one frame per payload: it writes them to a
// temp file, fsyncs it, renames it over the log and fsyncs the directory,
// so a crash leaves the old log or the new one, never a hybrid. Later
// appends go through the temp file's own descriptor, which the rename made
// the log's: no path is reopened, so no failure can leave appends going to
// the replaced file.
func (l *Log) Rewrite(payloads [][]byte) error {
	tmp, err := os.CreateTemp(l.dir, filepath.Base(l.path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("wal: rewrite %s: %w", l.path, err)
	}
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, l.magic, p)
	}
	_, err = tmp.Write(buf)
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), l.path)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: rewrite %s: %w", l.path, err)
	}
	l.f.Close()
	l.f, l.size = tmp, int64(len(buf))
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("wal: rewrite %s: %w", l.path, err)
	}
	return nil
}

// Size returns the log's length in bytes.
func (l *Log) Size() int64 { return l.size }

// Torn returns how many unverifiable tail bytes Open truncated.
func (l *Log) Torn() int64 { return l.torn }

// Dir returns the directory the log owns.
func (l *Log) Dir() string { return l.dir }

// Close fsyncs the log when sync is set, closes it and releases the
// directory lock by closing its descriptor. The LOCK file stays: removing
// it would reopen a two-owner race — a contender that already opened the
// old inode could flock it the moment we release, while a third opener
// locks a fresh file at the same path. An orphaned LOCK file carries no
// ownership, only the last owner's pid.
func (l *Log) Close(sync bool) error {
	var err error
	if l.f != nil {
		if sync {
			err = l.f.Sync()
		}
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
	}
	l.lock.Close()
	if err != nil {
		return fmt.Errorf("wal: close %s: %w", l.path, err)
	}
	return nil
}

// syncDir fsyncs a directory, making a file created or renamed in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
