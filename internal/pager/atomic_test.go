package pager

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteAtomic holds the landing to its contract: a landed file is
// complete and the check sees it whole before the rename; a failed write or
// check lands nothing and cleans its tmp file up; a panic inside the landing
// leaves the tmp file behind, as a crash would, and never the final name.
func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.ckpt")
	payload := []byte("complete")
	write := func(f *os.File) error { _, err := f.Write(payload); return err }
	exists := func(p string) bool { _, err := os.Stat(p); return err == nil }

	refuse := errors.New("refused")
	for _, c := range []struct {
		name  string
		write func(*os.File) error
		check func(string) error
	}{
		{"write-fails", func(*os.File) error { return refuse }, nil},
		{"check-refuses", write, func(string) error { return refuse }},
	} {
		if err := WriteAtomic(path, c.write, c.check); !errors.Is(err, refuse) {
			t.Fatalf("%s: err = %v, want the refusal", c.name, err)
		}
		if exists(path) || exists(path+".tmp") {
			t.Fatalf("%s: a refused landing left a file behind", c.name)
		}
	}

	func() {
		defer func() { recover() }()
		WriteAtomic(path, write, func(string) error { panic("crash before the rename") })
	}()
	if exists(path) || !exists(path+".tmp") {
		t.Fatalf("a panic before the rename: final exists %v, tmp exists %v; want only the tmp", exists(path), exists(path+".tmp"))
	}

	var seen []byte
	err := WriteAtomic(path, write, func(tmp string) error {
		var err error
		seen, err = os.ReadFile(tmp)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != string(payload) || string(seen) != string(payload) {
		t.Fatalf("landed %q (%v), check saw %q; want %q for both", got, err, seen, payload)
	}
	if exists(path + ".tmp") {
		t.Fatal("a landed file left its tmp behind")
	}
}

// TestWriteAtomicPanicClosesDescriptor: a panic inside write unwinds through
// WriteAtomic with its value intact and leaves the tmp file, as a crash
// would, but not the tmp file's descriptor — a process that recovers the
// panic (the checkpoint writer does) must not leak one per landing.
func TestWriteAtomicPanicClosesDescriptor(t *testing.T) {
	openFDs := func() int {
		des, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(des)
	}
	path := filepath.Join(t.TempDir(), "f.ckpt")
	before := openFDs()
	for i := 0; i < 3; i++ {
		func() {
			defer func() {
				if r := recover(); r != "crash mid-write" {
					t.Fatalf("recovered %v, want the write's own panic", r)
				}
			}()
			WriteAtomic(path, func(f *os.File) error {
				f.Write([]byte("half"))
				panic("crash mid-write")
			}, nil)
		}()
	}
	if after := openFDs(); after != before {
		t.Fatalf("%d descriptors open after three panicking landings, %d before", after, before)
	}
	if _, err := os.Stat(path + ".tmp"); err != nil {
		t.Fatalf("a panicking landing left no tmp file: %v", err)
	}
}
