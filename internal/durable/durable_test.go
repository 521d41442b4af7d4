package durable

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileReplaces: a second write replaces the first whole, and no
// temporary file is left behind.
func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	for _, want := range []string{`{"n":1}`, `{"n":2}`} {
		if err := WriteFile("test", path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("read back %q (%v), want %q", got, err, want)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temporary file left behind: %v", err)
	}
}

// TestWriteFileMissingDir: a write into a directory that does not exist
// fails and creates nothing.
func TestWriteFileMissingDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "f.json")
	if err := WriteFile("test", path, []byte("x")); err == nil {
		t.Fatal("write into a missing directory should fail")
	}
}
