package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// TestServeRecordRoundTrip records two loads into one trace file and
// replays it: the replay must print one row per recorded stream, under
// the label <file>#i, each equal to its recorded row after the label.
func TestServeRecordRoundTrip(t *testing.T) {
	file := filepath.Join(t.TempDir(), "rt.trace")
	var rec, rep bytes.Buffer
	if err := runServe([]string{"-channels", "4", "-n", "100", "-loads", "1e5,1e6", "-backend", "newton", "-record", file}, &rec); err != nil {
		t.Fatal(err)
	}
	if err := runServe([]string{"-channels", "4", "-backend", "newton", "-trace", file}, &rep); err != nil {
		t.Fatal(err)
	}
	recRows := strings.Split(strings.TrimSpace(rec.String()), "\n")
	repRows := strings.Split(strings.TrimSpace(rep.String()), "\n")
	if len(recRows) != 2 || len(repRows) != len(recRows) {
		t.Fatalf("recorded\n%s\nreplayed\n%s\nwant two rows each", rec.String(), rep.String())
	}
	for i, want := range []string{"100000 qps", "1000000 qps"} {
		label, recRow, _ := strings.Cut(recRows[i], ": ")
		repLabel, repRow, _ := strings.Cut(repRows[i], ": ")
		if label != want {
			t.Errorf("recorded row %d is labelled %q, want %q", i, label, want)
		}
		if wantLabel := fmt.Sprintf("%s#%d", file, i+1); repLabel != wantLabel {
			t.Errorf("replayed row %d is labelled %q, want %q", i, repLabel, wantLabel)
		}
		if repRow != recRow {
			t.Errorf("stream %d: recorded %q, replayed %q", i, recRow, repRow)
		}
	}
}
