package pager

import (
	"os"
	"path/filepath"
)

// WriteAtomic lands a file at path atomically. write fills path+".tmp",
// which is fsynced and closed; check, when non-nil, vets the complete tmp
// file; then the rename — the commit point — and an fsync of the directory
// make the landing durable. A crash anywhere before the rename leaves only
// the tmp file, which recovery treats as litter, and a crash after it
// leaves the complete file.
//
// A write, sync or check that fails removes the tmp file. Its removal is not
// deferred: a panic inside write or check (an armed failpoint) leaves the
// tmp file behind, as a crash would, though the descriptor is closed on the
// way out, for a process that recovers the panic and lives on.
func WriteAtomic(path string, write func(f *os.File) error, check func(tmp string) error) error {
	tmp := path + ".tmp"
	err := writeTmp(tmp, write)
	if err == nil && check != nil {
		err = check(tmp)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// writeTmp creates tmp, fills it with write and fsyncs it; the descriptor
// is closed however write returns, a panic included.
func writeTmp(tmp string, write func(f *os.File) error) (err error) {
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	return f.Sync()
}

// SyncDir fsyncs a directory so renames and creates within it are durable.
func SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
