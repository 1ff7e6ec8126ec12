package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// lockFileName is the per-directory lock marker. Exactly one live Log — in
// this process or any other — may own a directory at a time: a daemon
// sharing a cache with ad-hoc CLI runs needs that ownership explicit, or
// two writers would interleave appends and rewrites and silently drop each
// other's records.
const lockFileName = "LOCK"

// ErrLocked wraps every lock-acquisition conflict; test with
// errors.Is(err, ErrLocked).
var ErrLocked = errors.New("wal: directory is locked")

// LockError reports who owns a contended directory.
type LockError struct {
	Dir      string
	OwnerPID int
}

func (e *LockError) Error() string {
	return fmt.Sprintf("wal: %s is locked by pid %d (locks from dead processes release automatically)", e.Dir, e.OwnerPID)
}

// Unwrap makes errors.Is(err, ErrLocked) work.
func (e *LockError) Unwrap() error { return ErrLocked }

// lockDir takes exclusive ownership of a directory via flock(2) on its
// LOCK file and returns the held descriptor. Ownership is the kernel lock,
// not the file's existence: the kernel drops the lock with the descriptor,
// so a crashed owner leaves nothing stale to reclaim, and there is no
// check-then-remove window in which two racers can both "reclaim" a dead
// owner's lock. A live owner — including this very process holding
// another Log, since flock locks conflict per open descriptor — surfaces
// as *LockError.
func lockDir(dir string) (*os.File, error) {
	path := filepath.Join(dir, lockFileName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: lock %s: %w", dir, err)
	}
	if err := flockNB(f); err != nil {
		pid := lockOwner(path)
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, &LockError{Dir: dir, OwnerPID: pid}
		}
		return nil, fmt.Errorf("wal: lock %s: %w", dir, err)
	}
	// Record the owner purely for diagnostics (LockError reports it to the
	// loser); exclusion never depends on the file content.
	if err := f.Truncate(0); err == nil {
		f.Seek(0, io.SeekStart)
		fmt.Fprintf(f, "%d %s\n", os.Getpid(), time.Now().UTC().Format(time.RFC3339))
	}
	return f, nil
}

// flockNB grabs a non-blocking exclusive flock, retrying EINTR.
func flockNB(f *os.File) error {
	for {
		err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
		if !errors.Is(err, syscall.EINTR) {
			return err
		}
	}
}

// lockOwner parses the pid recorded in a lock file (0 when unreadable).
func lockOwner(path string) int {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0
	}
	pid, err := strconv.Atoi(fields[0])
	if err != nil {
		return 0
	}
	return pid
}

// OpenWait calls open until it succeeds, fails with an error other than
// ErrLocked, or wait has elapsed; wait <= 0 makes one attempt. A daemon
// restarting after a SIGKILL races the kernel reaping its predecessor:
// the flock releases with the dead process's descriptors, so the
// successor only needs to outwait the reaping, never to reclaim anything.
func OpenWait[T any](wait time.Duration, open func() (T, error)) (T, error) {
	deadline := time.Now().Add(wait)
	for {
		v, err := open()
		if err == nil || !errors.Is(err, ErrLocked) || !time.Now().Before(deadline) {
			return v, err
		}
		time.Sleep(25 * time.Millisecond)
	}
}
