package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestRunRefusesBadCustomSpec: a -custom size Generate cannot build from
// exits 2 naming the flag, before anything reaches stdout.
func TestRunRefusesBadCustomSpec(t *testing.T) {
	for _, c := range []struct {
		flag  string
		value string
	}{
		{"nodes", "0"},
		{"nodes", "1"},
		{"classes", "0"},
		{"dim", "0"},
		{"degree", "-1"},
		{"degree", "NaN"},
		{"degree", "1000"},
	} {
		args := []string{"-custom", "-nodes", "100", "-" + c.flag, c.value}
		code, out, errOut := capture(t, args)
		if code != 2 || out != "" || !strings.Contains(errOut, c.flag) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want 2, none, and a message naming %s",
				args, code, out, errOut, c.flag)
		}
	}
}

// TestRunRefusesBadCommandLine: no source, or an unknown benchmark name,
// exits 2 with nothing on stdout.
func TestRunRefusesBadCommandLine(t *testing.T) {
	for _, args := range [][]string{{}, {"-dataset", "imagenet"}} {
		if code, out, _ := capture(t, args); code != 2 || out != "" {
			t.Errorf("%q: exit %d with output %q, want 2 and none", args, code, out)
		}
	}
}

// TestRunPrintsStats: a good custom spec prints its statistics and exits 0.
func TestRunPrintsStats(t *testing.T) {
	code, out, _ := capture(t, []string{"-custom", "-nodes", "200", "-degree", "6", "-classes", "3", "-dim", "4"})
	if code != 0 || !strings.Contains(out, "== custom ==") || !strings.Contains(out, "nodes      200") {
		t.Fatalf("exit %d with output %q", code, out)
	}
}

// capture runs the command with stdout and stderr redirected and returns
// what it wrote to each.
func capture(t *testing.T, args []string) (int, string, string) {
	t.Helper()
	read := func(f **os.File) func() string {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		saved := *f
		*f = w
		done := make(chan []byte)
		go func() {
			b, _ := io.ReadAll(r)
			done <- b
		}()
		return func() string {
			*f = saved
			w.Close()
			return string(<-done)
		}
	}
	stdout, stderr := read(&os.Stdout), read(&os.Stderr)
	code := run(args)
	return code, stdout(), stderr()
}
