package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenRows are small invocations of every subcommand. Row r's stdout
// must equal testdata/golden/<r.name>.txt. FILE stands for a file the
// command writes: testdata/golden/files.sha256 holds its SHA-256, and
// its path reads as OUT in the golden stdout. Inputs are committed
// under testdata/, and paths print as given.
var goldenRows = []struct{ name, args string }{
	{"bench_serving", "bench -fig serving -channels 4"},
	{"bench_cluster", "bench -fig cluster -channels 4"},
	{"bench_fault", "bench -fig fault -channels 4"},
	{"bench_families", "bench -fig families -channels 4"},
	{"bench_multitenant", "bench -fig multitenant -channels 4"},
	{"bench_cluster_csv", "bench -fig cluster -channels 4 -format csv"},
	{"bench_fault_csv", "bench -fig fault -channels 4 -n 200 -bers 1e-4,1e-3 -max-per-word 1 -seed 7 -format csv"},
	{"bench_chrometrace", "bench -channels 2 -banks 8 -chrometrace FILE"},
	{"sim", "sim -channels 4"},
	{"sim_nonopt", "sim -channels 4 -variant nonopt -batch 2 -workload DLRM-s1"},
	{"sim_model", "sim -channels 4 -model DLRM"},
	{"trace", "trace -rows 16 -cols 512"},
	{"trace_gantt", "trace -variant nonopt -rows 8 -cols 256 -gantt"},
	{"trace_noreuse", "trace -variant noreuse -max 0 -rows 16 -cols 512 -o FILE"},
	{"replay_strict", "replay -in testdata/cmd.trace -strict"},
	{"replay_shifted", "replay -in testdata/shift.trace"},
	{"replay_isr", "replay -isr testdata/tiny.isr"},
	{"serve", "serve -channels 4 -n 2000"},
	{"serve_hist", "serve -channels 4 -n 2000 -backend newton -models DLRM-s1,GNMT-s1 -split 2,2 -hist"},
	{"serve_shed", "serve -channels 4 -n 2000 -backend ideal -max-batch 4 -queue 8 -shed oldest -max-wait 500"},
	{"serve_record", "serve -channels 4 -n 2000 -record FILE"},
	{"serve_trace", "serve -channels 4 -trace testdata/arrivals.trace -backend gpu"},
	{"cluster", "cluster -channels 4 -n 3000"},
	{"cluster_kill", "cluster -channels 4 -n 3000 -kill 0@20000,1@30000 -outages 1"},
	{"cluster_split_hash", "cluster -channels 4 -n 20000 -models DLRM-s1,GNMT-s1 -split 0,2 -max-batch 8 -max-wait 200 -queue 6 -shed oldest -policy hash -kill 1@200000 -json"},
	{"cluster_autoscale", "cluster -channels 4 -n 20000 -max-batch 4 -max-queue 20 -standby 2 -slo 20000 -warmup 5000 -loads 5e6,1e7 -json"},
	{"cluster_verify", "cluster -channels 4 -n 3000 -verify -backend newton"},
	{"mem", "mem -channels 4 -runs 2"},
	{"mem_fair", "mem -channels 4 -runs 3 -policy fair-slice -locality uniform"},
	{"mem_stride", "mem -channels 4 -runs 3 -policy mem-priority -intensity 16 -locality stride -drain=false"},
}

// TestCommandsGolden runs every golden row in-process and compares its
// stdout, and any file it writes, with the recorded outputs.
func TestCommandsGolden(t *testing.T) {
	digests := readDigests(t)
	written := 0
	for _, row := range goldenRows {
		t.Run(row.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out")
			args := strings.Fields(row.args)
			for i, a := range args {
				if a == "FILE" {
					args[i] = out
				}
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("newton %s: exit %d\n%s", row.args, code, stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", row.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.ReplaceAll(stdout.String(), out, "OUT"); got != string(want) {
				t.Errorf("newton %s: stdout differs from the golden at %s", row.args, firstDiff(got, string(want)))
			}
			sum, ok := digests[row.name]
			if !ok {
				return
			}
			written++
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256.Sum256(data); hex.EncodeToString(got[:]) != sum {
				t.Errorf("newton %s: the written file's SHA-256 is %x, want %s", row.args, got, sum)
			}
		})
	}
	if written != len(digests) {
		t.Errorf("%d of the %d recorded files were written", written, len(digests))
	}
}

// readDigests reads testdata/golden/files.sha256 (sha256sum format).
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "golden", "files.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	digests := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("bad digest line %q", sc.Text())
		}
		digests[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return digests
}

// firstDiff locates the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, gl, wl)
		}
	}
	return "no line (the outputs are equal)"
}

// TestCommandsRejectBadFlags drives flag values that panicked or printed
// silently wrong numbers before the commands validated them: each must
// exit 2 with an error naming the flag.
func TestCommandsRejectBadFlags(t *testing.T) {
	for _, c := range []struct {
		args, flag string
		mentions   []string
	}{
		{"bench -fig bogus", "-fig", figureNames()},
		{"bench -format xml", "-format", nil},
		{"sim -batch 0", "-batch", nil},
		{"sim -batch -1", "-batch", nil},
		{"sim -rows 5", "-cols", nil},
		{"mem -rows 5", "-cols", nil},
		{"sim -rows -5 -cols 3", "-rows", nil},
		{"mem -rows -5 -cols 3", "-rows", nil},
		{"trace -rows 0", "-rows", nil},
		{"trace -cols 0", "-cols", nil},
		{"serve -n 0", "-n", nil},
		{"cluster -n -5", "-n", nil},
		{"replay -latches 0", "-latches", nil},
		{"replay -latches -1", "-latches", nil},
		{"replay -isr testdata/tiny.isr -channels -1", "-channels", nil},
		{"replay -isr testdata/tiny.isr -channels 0", "-channels", nil},
		{"replay -in testdata/cmd.trace -banks 0", "-banks", nil},
		{"replay -in testdata/cmd.trace -channels -1", "-channels", nil},
		{"bench -fig serving -channels 0", "-channels", nil},
		{"sim -banks 0", "-banks", nil},
		{"mem -channels -2", "-channels", nil},
		{"serve -channels 0 -n 100 -backend gpu", "-channels", nil},
		{"cluster -channels 0 -n 100 -backend gpu", "-channels", nil},
		{"serve -channels -3 -backend gpu", "-channels", nil},
		{"serve -max-batch 0", "-max-batch", nil},
		{"cluster -max-batch -3", "-max-batch", nil},
		{"serve -gpu-max-batch 0", "-gpu-max-batch", nil},
		{"serve -queue -1", "-queue", nil},
		{"serve -max-wait -1", "-max-wait", nil},
		{"cluster -slo -5", "-slo", nil},
		{"cluster -slo NaN", "-slo", nil},
		{"cluster -warmup -5", "-warmup", nil},
		{"cluster -warmup +Inf -max-queue 2 -standby 1", "-warmup", nil},
		{"cluster -max-queue -1", "-max-queue", nil},
		{"cluster -outages -2", "-outages", nil},
		{"cluster -reduce -5", "-reduce", nil},
		{"serve -loads +Inf", "-loads", nil},
		{"serve -channels 4 -n 100 -split -1", "-split", nil},
		{"cluster -channels 4 -n 100 -replicas -1", "-replicas", nil},
		{"cluster -channels 4 -n 100 -standby -1", "-standby", nil},
		{"cluster -channels 4 -n 100 -split 1", "-split", nil},
		{"cluster -channels 4 -n 100 -split -2", "-split", nil},
		{"cluster -channels 4 -n 100 -kill 9@100", "-kill", nil},
		{"cluster -channels 4 -n 100 -kill -1@100", "-kill", nil},
		{"sim -channels 4 -batch 0 -model DLRM", "-batch", nil},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(c.args), &stdout, &stderr)
		cmd, _, _ := strings.Cut(c.args, " ")
		msg := stderr.String()
		if code != 2 || !strings.HasPrefix(msg, "newton "+cmd+": "+c.flag+": ") {
			t.Errorf("newton %s: exit %d, stderr %q; want exit 2 and an error naming %s", c.args, code, msg, c.flag)
		}
		if stdout.Len() > 0 {
			t.Errorf("newton %s printed %q before failing", c.args, stdout.String())
		}
		for _, m := range c.mentions {
			if !strings.Contains(msg, m) {
				t.Errorf("newton %s: error %q does not list %q", c.args, msg, m)
			}
		}
	}
}

// TestRunDispatch checks the exit statuses of the command line itself.
func TestRunDispatch(t *testing.T) {
	for _, c := range []struct {
		args string
		code int
	}{
		{"", 2},
		{"bogus", 2},
		{"sim -h", 0},
		{"sim -no-such-flag", 2},
		{"sim -channels 4 extra", 2},
		{"replay", 2},
		{"serve -backend tpu", 2},
		{"replay -in testdata/no-such-file", 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(c.args), &stdout, &stderr); code != c.code {
			t.Errorf("newton %s: exit %d, want %d (stderr %q)", c.args, code, c.code, stderr.String())
		}
	}
}
