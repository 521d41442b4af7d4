// Package durable writes files that a crash leaves whole: either the old
// content or the new, never a mix. It is the one persistence primitive
// under the fuzzer's checkpoints and the campaign daemon's job files.
package durable

import (
	"os"
	"path/filepath"

	"cftcg/internal/faultinject"
)

// WriteFile replaces path with data atomically and durably: data goes to
// the sibling path.tmp, which is synced, closed and renamed over path, and
// then the parent directory is synced so the rename itself survives power
// loss. A crash at any point leaves the previous file intact, plus at most
// a stray .tmp. name prefixes the two failpoints the write evaluates:
// name.write before anything touches the disk and name.rename between the
// synced temp file and the rename.
func WriteFile(name, path string, data []byte) error {
	if err := faultinject.Eval(name + ".write"); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := faultinject.Eval(name + ".rename"); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
