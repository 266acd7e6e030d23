package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestReadSource(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "k.chop")
	if err := os.WriteFile(path, []byte("node main..."), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readSource(path)
	if err != nil || got != "node main..." {
		t.Errorf("readSource: %q, %v", got, err)
	}
	if _, err := readSource(filepath.Join(dir, "missing.chop")); err == nil {
		t.Error("missing file accepted")
	}
}
