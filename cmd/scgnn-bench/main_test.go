package main

import (
	"io"
	"os"
	"testing"
)

// TestRunRefusesBadCommandLine: a negative -parts, and an unknown id anywhere
// in -exp, exit 2 before any experiment runs — nothing reaches stdout, where
// fig4a's report would be had it run first.
func TestRunRefusesBadCommandLine(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "-parts", "-1"},
		{"-quick", "-parts", "-1", "-exp", "fig4a"},
		{"-quick", "-exp", "fig4a,nope"},
		{"-quick", "-exp", "nope"},
	} {
		code, out := capture(t, args)
		if code != 2 || out != "" {
			t.Errorf("%q: exit %d with output %q, want 2 and none", args, code, out)
		}
	}
}

// TestRunOneExperiment: a good command line runs the experiments it names
// and exits 0.
func TestRunOneExperiment(t *testing.T) {
	code, out := capture(t, []string{"-quick", "-exp", "fig4a"})
	if code != 0 || len(out) == 0 {
		t.Fatalf("exit %d with output %q", code, out)
	}
}

// capture runs the command with stdout redirected and returns what it wrote.
func capture(t *testing.T, args []string) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	code := run(args)
	os.Stdout = stdout
	w.Close()
	return code, string(<-done)
}
