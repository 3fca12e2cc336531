package main

import (
	"slices"
	"strings"
	"testing"
)

// TestConfigs: every method flag maps onto its exchange under scgnn-train's
// rules, and a value the fleet would panic on, or would quietly run as
// vanilla or a default, is refused — -bits 99 among them, which once trained
// the vanilla exchange byte for byte.
func TestConfigs(t *testing.T) {
	nodes := []string{"-nodes", "a.sock,b.sock"}
	for _, tc := range []struct {
		args   []string
		method string // MethodName of the accepted config
		err    string // substring of the refusal
	}{
		{args: nil, method: "semantic"},
		{args: []string{"-method", "vanilla"}, method: "vanilla"},
		{args: []string{"-method", "sampling", "-rate", "0.5"}, method: "sampling"},
		{args: []string{"-method", "quant", "-bits", "1"}, method: "quant"},
		{args: []string{"-method", "quant", "-bits", "16"}, method: "quant"},
		{args: []string{"-method", "delay", "-period", "2"}, method: "delay"},
		{args: []string{"-method", "quant", "-sched"}, method: "sched(quant)"},
		{args: []string{"-groups", "4", "-epochs", "1", "-hidden", "1"}, method: "semantic"},

		{args: []string{"-epochs", "0"}, err: "-epochs 0"},
		{args: []string{"-epochs", "-1"}, err: "-epochs -1"},
		{args: []string{"-hidden", "0"}, err: "-hidden 0"},
		{args: []string{"-lr", "0"}, err: "-lr 0"},
		{args: []string{"-lr", "-0.5"}, err: "-lr -0.5"},
		{args: []string{"-method", "quant", "-bits", "99"}, err: "-bits 99"},
		{args: []string{"-method", "quant", "-bits", "0"}, err: "-bits 0"},
		{args: []string{"-method", "quant", "-bits", "17"}, err: "-bits 17"},
		{args: []string{"-method", "sampling", "-rate", "1"}, err: "-rate 1"},
		{args: []string{"-method", "sampling", "-rate", "0"}, err: "-rate 0"},
		{args: []string{"-method", "delay", "-period", "1"}, err: "-period 1"},
		{args: []string{"-groups", "-1"}, err: "-groups -1"},
		{args: []string{"-method", "topk"}, err: `unknown method "topk"`},
	} {
		addrs, cfg, _, err := parseFlags(append(slices.Clone(nodes), tc.args...)).configs()
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%q: %v", tc.args, err)
		case tc.err == "" && cfg.MethodName() != tc.method:
			t.Errorf("%q: method %s, want %s", tc.args, cfg.MethodName(), tc.method)
		case tc.err == "" && !slices.Equal(addrs, []string{"a.sock", "b.sock"}):
			t.Errorf("%q: nodes %q", tc.args, addrs)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%q: error %v, want one naming %q", tc.args, err, tc.err)
		}
	}
	if _, _, _, err := parseFlags(nil).configs(); err == nil || !strings.Contains(err.Error(), "-nodes") {
		t.Errorf("no -nodes: error %v, want one naming -nodes", err)
	}
}
