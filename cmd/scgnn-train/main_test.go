package main

import (
	"strings"
	"testing"
)

// TestConfigs: every method flag maps onto its exchange, and a value the run
// would panic on, or would quietly run as vanilla or a default, is refused.
func TestConfigs(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		method string // MethodName of the accepted config
		err    string // substring of the refusal
	}{
		{args: nil, method: "semantic"},
		{args: []string{"-method", "vanilla"}, method: "vanilla"},
		{args: []string{"-method", "sampling", "-rate", "0.5"}, method: "sampling"},
		{args: []string{"-method", "quant", "-bits", "4"}, method: "quant"},
		{args: []string{"-method", "quant", "-bits", "16"}, method: "quant"},
		{args: []string{"-method", "delay", "-period", "3"}, method: "delay"},
		{args: []string{"-method", "quant", "-sched"}, method: "sched(quant)"},
		{args: []string{"-model", "sage", "-parts", "1", "-epochs", "1"}, method: "semantic"},

		{args: []string{"-parts", "0"}, err: "-parts 0"},
		{args: []string{"-model", "gat"}, err: `unknown model "gat"`},
		{args: []string{"-epochs", "-1"}, err: "-epochs -1"},
		{args: []string{"-epochs", "0"}, err: "-epochs 0"},
		{args: []string{"-hidden", "-4"}, err: "-hidden -4"},
		{args: []string{"-lr", "0"}, err: "-lr 0"},
		{args: []string{"-method", "quant", "-bits", "99"}, err: "-bits 99"},
		{args: []string{"-method", "quant", "-bits", "0"}, err: "-bits 0"},
		{args: []string{"-method", "sampling", "-rate", "1.5"}, err: "-rate 1.5"},
		{args: []string{"-method", "sampling", "-rate", "1"}, err: "-rate 1"},
		{args: []string{"-method", "delay", "-period", "-3"}, err: "-period -3"},
		{args: []string{"-method", "delay", "-period", "1"}, err: "-period 1"},
		{args: []string{"-groups", "-2"}, err: "-groups -2"},
		{args: []string{"-method", "topk"}, err: `unknown method "topk"`},
	} {
		cfg, _, err := parseFlags(tc.args).configs()
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%q: %v", tc.args, err)
		case tc.err == "" && cfg.MethodName() != tc.method:
			t.Errorf("%q: method %s, want %s", tc.args, cfg.MethodName(), tc.method)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%q: error %v, want one naming %q", tc.args, err, tc.err)
		}
	}
}
