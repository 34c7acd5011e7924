package experiments

import (
	"bytes"
	"testing"
)

// TestQuickRunBackendParity renders a full quick experiment through the
// public runner path with the serial backend and under its alias
// "parallel" with a stale worker count; the reports must be
// byte-identical.
func TestQuickRunBackendParity(t *testing.T) {
	run := func(opt Options) string {
		var buf bytes.Buffer
		if err := Registry["fig1a"](opt, &buf); err != nil {
			t.Fatalf("fig1a %+v: %v", opt, err)
		}
		return buf.String()
	}
	ref := run(Options{Quick: true, Seed: 3})
	got := run(Options{Quick: true, Seed: 3, Backend: "parallel", Workers: 4})
	if got != ref {
		t.Fatalf("fig1a output diverged under the alias:\nserial:\n%s\nparallel:\n%s", ref, got)
	}
}

// TestQuickRunFloat32Parity is the float32 mirror: serial32 and its alias
// parallel32 must render byte-identical reports for the same seed. Float32
// reports are not compared against float64 ones — the dtype is part of the
// result, and rounding legitimately shifts the figures (DESIGN.md §9).
func TestQuickRunFloat32Parity(t *testing.T) {
	run := func(opt Options) string {
		var buf bytes.Buffer
		if err := Registry["fig1a"](opt, &buf); err != nil {
			t.Fatalf("fig1a %+v: %v", opt, err)
		}
		return buf.String()
	}
	ref := run(Options{Quick: true, Seed: 3, Backend: "serial32"})
	got := run(Options{Quick: true, Seed: 3, Backend: "parallel32", Workers: 4})
	if got != ref {
		t.Fatalf("fig1a output diverged under the alias:\nserial32:\n%s\nparallel32:\n%s", ref, got)
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	if err := (Options{Backend: "parallel", Workers: 2}).Validate(); err != nil {
		t.Fatalf("parallel options invalid: %v", err)
	}
	if err := (Options{Backend: "serial32"}).Validate(); err != nil {
		t.Fatalf("serial32 options invalid: %v", err)
	}
	if err := (Options{Backend: "parallel32", Workers: 2}).Validate(); err != nil {
		t.Fatalf("parallel32 options invalid: %v", err)
	}
	if err := (Options{Backend: "quantum"}).Validate(); err == nil {
		t.Fatal("unknown backend accepted")
	}
	// Runners must reject bad options themselves, not just the CLI.
	if err := Registry["table1"](Options{Backend: "quantum"}, &bytes.Buffer{}); err == nil {
		t.Fatal("runner accepted unknown backend")
	}
}
