package main

// Golden-file test for the -eco report. The report carries no
// wall-clock times and the whole flow is deterministic, so the test
// pins the exact bytes: periods, cone size, incremental-STA counts,
// splice/transfer status and probe counts. Regenerate after an
// intentional format change with
//
//	go test ./cmd/vsync -run TestGolden -update

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"virtualsync"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestGoldenHelp pins the -help usage text, so any flag addition,
// removal or rewording shows up in review as a golden diff rather than
// slipping by unnoticed.
func TestGoldenHelp(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-help"}, &buf); err != nil {
		t.Fatalf("vsync -help: %v", err)
	}
	path := filepath.Join("testdata", "golden", "help.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("usage differs from %s (run with -update after intentional changes)\n--- got ---\n%s\n--- want ---\n%s",
			path, buf.Bytes(), want)
	}
}

// TestRejectsBadInput pins the errors for inputs vsync cannot run: each
// must fail before any optimization with a message naming what is
// allowed, rather than panic or quietly run something else.
func TestRejectsBadInput(t *testing.T) {
	tiny := filepath.Join("testdata", "tiny.bench")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-verify-lanes", "5000", tiny}, "-verify-lanes 5000 outside 1..4096"},
		{[]string{"-verify-lanes", "0", tiny}, "-verify-lanes 0 outside 1..4096"},
		{[]string{"-bench", "nosuch"}, `unknown benchmark "nosuch" (one of [s5378 `},
		{nil, "need a circuit file or -bench name (one of [s5378 "},
	} {
		var buf bytes.Buffer
		err := run(c.args, &buf)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("vsync %v: error %v, want one containing %q", c.args, err, c.want)
		}
		if buf.Len() != 0 {
			t.Errorf("vsync %v printed before failing:\n%s", c.args, buf.String())
		}
	}
}

func TestGoldenECOReport(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-skip-baseline",
		"-eco", filepath.Join("testdata", "eco.edits"),
		"-verify", "32",
		filepath.Join("testdata", "tiny.bench"),
	}, &buf)
	if err != nil {
		t.Fatalf("vsync -eco: %v\noutput so far:\n%s", err, buf.String())
	}
	path := filepath.Join("testdata", "golden", "eco_report.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("output differs from %s (run with -update after intentional changes)\n--- got ---\n%s\n--- want ---\n%s",
			path, buf.Bytes(), want)
	}
}

// TestVerifyWarmupFollowsResult: the plain and the -eco path both check
// equivalence from the optimized result's own warm-up
// (Result.VerifyWarmup), not from a fixed cycle count.
func TestVerifyWarmupFollowsResult(t *testing.T) {
	tiny := filepath.Join("testdata", "tiny.bench")
	script := filepath.Join("testdata", "eco.edits")
	var got []int
	checkEquivalence = func(a, b *virtualsync.Circuit, lib *virtualsync.Library, Ta, Tb float64, cycles, warmup, lanes int, seed int64) (*virtualsync.EquivReport, error) {
		got = append(got, warmup)
		return virtualsync.CheckEquivalence(a, b, lib, Ta, Tb, cycles, warmup, lanes, seed)
	}
	defer func() { checkEquivalence = virtualsync.CheckEquivalence }()
	for _, args := range [][]string{
		{"-skip-baseline", "-verify", "32", tiny},
		{"-skip-baseline", "-eco", script, "-verify", "32", tiny},
	} {
		if err := run(args, io.Discard); err != nil {
			t.Fatalf("vsync %v: %v", args, err)
		}
	}

	// The same deterministic flows through the facade give the results
	// whose warm-ups vsync must have used.
	ctx := context.Background()
	lib := virtualsync.DefaultLibrary()
	c, err := loadCircuit("", tiny)
	if err != nil {
		t.Fatal(err)
	}
	opts := virtualsync.DefaultOptions()
	plain, err := virtualsync.OptimizeCtx(ctx, c, lib, opts, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(script)
	if err != nil {
		t.Fatal(err)
	}
	edits, err := virtualsync.ParseEdits(string(text))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := virtualsync.NewSession(ctx, c, lib, opts, 0.005, nil)
	if err != nil {
		t.Fatal(err)
	}
	eco, _, err := sess.Reoptimize(ctx, edits)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{plain.VerifyWarmup(), eco.VerifyWarmup()}; !slices.Equal(got, want) {
		t.Fatalf("vsync checked from warm-ups %v, want the results' %v", got, want)
	}
}
