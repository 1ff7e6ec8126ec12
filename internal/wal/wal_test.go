package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The two magics in use: the campaign journal's and the result store's.
const (
	journalMagic = uint32(0x4a535743) // "CWSJ"
	storeMagic   = uint32(0x43535743) // "CWSC"
)

// decodeAll returns the payloads of b's trusted prefix and its length.
func decodeAll(b []byte, magic uint32) ([][]byte, int) {
	var out [][]byte
	n := Decode(b, magic, func(p []byte) bool {
		out = append(out, p)
		return true
	})
	return out, n
}

func frames(magic uint32, payloads ...string) []byte {
	var b []byte
	for _, p := range payloads {
		b = AppendFrame(b, magic, []byte(p))
	}
	return b
}

func TestDecodeTrustedPrefix(t *testing.T) {
	two := frames(journalMagic, `{"a":1}`, `{"b":2}`)
	first := len(frames(journalMagic, `{"a":1}`))
	flipped := append([]byte{}, two...)
	flipped[first+headerSize+1] ^= 0x04
	empty := AppendFrame(append([]byte{}, two[:first]...), journalMagic, nil)
	for _, tc := range []struct {
		name string
		b    []byte
		want int // trusted-prefix length
	}{
		{"whole", two, len(two)},
		{"torn payload", two[:len(two)-1], first},
		{"torn header", two[:first+headerSize-1], first},
		{"bit flip", flipped, first},
		{"empty payload", empty, first},
		{"other magic", append(append([]byte{}, two[:first]...), frames(storeMagic, `{"b":2}`)...), first},
	} {
		if _, n := decodeAll(tc.b, journalMagic); n != tc.want {
			t.Errorf("%s: trusted prefix %d bytes, want %d", tc.name, n, tc.want)
		}
	}
	// A payload its reader rejects ends the prefix too.
	n := Decode(two, journalMagic, func(p []byte) bool { return !bytes.Contains(p, []byte("b")) })
	if n != first {
		t.Errorf("rejected payload: trusted prefix %d bytes, want %d", n, first)
	}
}

// After Rewrite the log appends through the descriptor the directory now
// names, with no reopen, and a reopen replays the appends.
func TestRewriteKeepsTheLogsDescriptor(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, "x.wal", journalMagic, func([]byte) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([][]byte{[]byte("a"), []byte("b")}, false); err != nil {
		t.Fatal(err)
	}
	if err := l.Rewrite([][]byte{[]byte("ab")}); err != nil {
		t.Fatal(err)
	}
	named, err := os.Stat(filepath.Join(dir, "x.wal"))
	if err != nil {
		t.Fatal(err)
	}
	held, err := l.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(named, held) {
		t.Fatal("after Rewrite the log appends to a file the directory no longer names")
	}
	if err := l.Append([][]byte{[]byte("c")}, true); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(false); err != nil {
		t.Fatal(err)
	}
	var got []string
	l2, err := Open(dir, "x.wal", journalMagic, func(p []byte) bool {
		got = append(got, string(p))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close(false)
	if len(got) != 2 || got[0] != "ab" || got[1] != "c" {
		t.Fatalf("replayed %q, want [ab c]", got)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 2 { // x.wal and LOCK: no temp file left behind
		t.Fatalf("directory holds %d files, want 2", len(ents))
	}
}

// FuzzDecode holds the codec to its contract on arbitrary bytes under
// either magic: the trusted prefix lies inside the input, and decoding the
// prefix alone yields the same payloads and nothing left over, so
// truncating there at Open loses nothing trusted.
func FuzzDecode(f *testing.F) {
	for _, m := range []uint32{journalMagic, storeMagic} {
		two := frames(m, `{"kind":"accepted","id":"a"}`, `{"sig":"5e","val":1}`)
		flipped := append([]byte{}, two...)
		flipped[headerSize+3] ^= 0x10
		f.Add([]byte{}, m)
		f.Add(two, m)
		f.Add(two[:len(two)-3], m) // torn tail
		f.Add(flipped, m)          // bit flip
		f.Add(two, m^1)            // foreign magic
	}
	f.Add(bytes.Repeat([]byte{0xff}, 64), journalMagic)

	f.Fuzz(func(t *testing.T, b []byte, magic uint32) {
		recs, n := decodeAll(b, magic)
		if n < 0 || n > len(b) {
			t.Fatalf("trusted prefix %d outside [0,%d]", n, len(b))
		}
		again, n2 := decodeAll(b[:n], magic)
		if n2 != n || len(again) != len(recs) {
			t.Fatalf("prefix re-decode: %d records/%d bytes, want %d/%d", len(again), n2, len(recs), n)
		}
		for i := range recs {
			if !bytes.Equal(recs[i], again[i]) {
				t.Fatalf("record %d differs on re-decode", i)
			}
		}
	})
}
