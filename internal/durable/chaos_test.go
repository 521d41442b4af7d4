package durable

import (
	"os"
	"path/filepath"
	"testing"

	"cftcg/internal/faultinject"
)

// TestChaosFailedWriteKeepsOldFile: a write that fails before the disk is
// touched (name.write) or after the temp file is synced (name.rename) leaves
// the previous file intact and no temporary file behind.
func TestChaosFailedWriteKeepsOldFile(t *testing.T) {
	defer faultinject.Reset()
	path := filepath.Join(t.TempDir(), "f.json")
	if err := WriteFile("test", path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	for _, fp := range []string{"test.write", "test.rename"} {
		faultinject.Set(fp, faultinject.Failpoint{Kind: faultinject.KindError, Times: 1})
		if err := WriteFile("test", path, []byte("new")); err == nil {
			t.Fatalf("%s armed: write should fail", fp)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
			t.Errorf("%s armed: file reads %q (%v), want the old content", fp, got, err)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Errorf("%s armed: temporary file left behind: %v", fp, err)
		}
	}
}
