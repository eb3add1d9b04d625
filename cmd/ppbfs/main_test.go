package main

import (
	"path/filepath"
	"testing"

	"pushpull/generate"
	"pushpull/generate/mmio"
)

func TestRunGeneratedDatasetAllFrameworks(t *testing.T) {
	if err := run("", "kron", 9, 0, 1, "all", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceAndAutoSource(t *testing.T) {
	if err := run("", "kron", 9, -1, 1, "thiswork", true); err != nil {
		t.Fatal(err)
	}
	if err := run("", "roadnet", 9, 0, 3, "gunrock", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunFromFile(t *testing.T) {
	g, err := generate.Grid2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.mtx")
	if err := mmio.WritePatternFile(path, g); err != nil {
		t.Fatal(err)
	}
	if err := run(path, "", 0, 0, 1, "ligra", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", "nope", 9, 0, 1, "thiswork", false); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if err := run("", "kron", 9, 0, 1, "warp9", false); err == nil {
		t.Fatal("unknown framework accepted")
	}
	if err := run("/does/not/exist.mtx", "", 0, 0, 1, "thiswork", false); err == nil {
		t.Fatal("missing file accepted")
	}
	for _, fw := range []string{"thiswork", "ligra"} {
		if err := run("", "kron", 8, 99999, 1, fw, false); err == nil {
			t.Fatalf("%s: out-of-range source accepted", fw)
		}
	}
}
