package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestExampleGolden runs the example and compares its stdout with
// testdata/golden.txt, recorded from the example as it ran on the root
// package's two serving façades (Server and Cluster) before they became
// the one Cluster type.
func TestExampleGolden(t *testing.T) {
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = stdout }()
	main()

	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("stdout differs from testdata/golden.txt:\n got:\n%s\nwant:\n%s", got, want)
	}
}
