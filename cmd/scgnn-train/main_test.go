package main

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"scgnn/internal/net"
)

// TestConfigs: every method flag maps onto its exchange in process, and a
// value the run would panic on, or would quietly run as vanilla or a default,
// is refused.
func TestConfigs(t *testing.T) { checkMethods(t, nil) }

// TestFleetConfigs: the same method rows hold on a fleet — -bits 99 among
// them, which once trained the vanilla exchange byte for byte there. A fleet
// runs one partition per node, and only a fleet keeps a checkpoint.
func TestFleetConfigs(t *testing.T) {
	checkMethods(t, []string{"-nodes", "a.sock,b.sock"})

	// The fleet's own flags.
	for _, tc := range []struct {
		args  []string
		nodes []string
		parts int
		err   string
	}{
		{args: []string{"-parts", "1"}, parts: 1},
		{args: []string{"-nodes", "a.sock"}, nodes: []string{"a.sock"}, parts: 1},
		{args: []string{"-nodes", "a.sock,b.sock,127.0.0.1:7400", "-parts", "3"},
			nodes: []string{"a.sock", "b.sock", "127.0.0.1:7400"}, parts: 3},
		{args: []string{"-nodes", "a.sock,b.sock", "-node-bin", "./scgnn-node", "-checkpoint", "job.ck"},
			nodes: []string{"a.sock", "b.sock"}, parts: 2},

		{args: []string{"-parts", "0"}, err: "-parts 0"},
		{args: []string{"-nodes", "a.sock,,b.sock"}, err: "empty address"},
		{args: []string{"-nodes", "a.sock,"}, err: "empty address"},
		{args: []string{"-checkpoint", "job.ck"}, err: "-checkpoint needs -nodes"},
		{args: []string{"-node-bin", "./scgnn-node"}, err: "-node-bin needs -nodes"},
		{args: []string{"-nodes", "a.sock,b.sock", "-parts", "3"}, err: "-parts 3 with 2 nodes"},
		{args: []string{"-nodes", "a.sock,b.sock", "-parts", "0"}, err: "-parts 0"},
	} {
		j, err := parseFlags(tc.args).configs()
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%q: %v", tc.args, err)
		case tc.err == "" && (!slices.Equal(j.nodes, tc.nodes) || j.parts != tc.parts):
			t.Errorf("%q: nodes %q over %d parts, want %q over %d", tc.args, j.nodes, j.parts, tc.nodes, tc.parts)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%q: error %v, want one naming %q", tc.args, err, tc.err)
		}
	}
}

// checkMethods runs every method row after the fleet's flags, or in process
// when fleet is nil.
func checkMethods(t *testing.T, fleet []string) {
	t.Helper()
	for _, tc := range []struct {
		args   []string
		method string // MethodName of the accepted config
		err    string // substring of the refusal
	}{
		{args: nil, method: "semantic"},
		{args: []string{"-method", "vanilla"}, method: "vanilla"},
		{args: []string{"-method", "sampling", "-rate", "0.5"}, method: "sampling"},
		{args: []string{"-method", "quant", "-bits", "1"}, method: "quant"},
		{args: []string{"-method", "quant", "-bits", "4"}, method: "quant"},
		{args: []string{"-method", "quant", "-bits", "16"}, method: "quant"},
		{args: []string{"-method", "delay", "-period", "2"}, method: "delay"},
		{args: []string{"-method", "quant", "-sched"}, method: "sched(quant)"},
		{args: []string{"-method", "quant", "-sched", "-sched-epochs-per-level", "3"}, method: "sched(quant)"},
		{args: []string{"-model", "sage", "-epochs", "1"}, method: "semantic"},
		{args: []string{"-groups", "4", "-epochs", "1", "-hidden", "1"}, method: "semantic"},

		{args: []string{"-model", "gat"}, err: `unknown model "gat"`},
		{args: []string{"-epochs", "-1"}, err: "-epochs -1"},
		{args: []string{"-epochs", "0"}, err: "-epochs 0"},
		{args: []string{"-hidden", "0"}, err: "-hidden 0"},
		{args: []string{"-hidden", "-4"}, err: "-hidden -4"},
		{args: []string{"-lr", "0"}, err: "-lr 0"},
		{args: []string{"-lr", "-0.5"}, err: "-lr -0.5"},
		{args: []string{"-method", "quant", "-bits", "99"}, err: "-bits 99"},
		{args: []string{"-method", "quant", "-bits", "17"}, err: "-bits 17"},
		{args: []string{"-method", "quant", "-bits", "0"}, err: "-bits 0"},
		{args: []string{"-method", "sampling", "-rate", "1.5"}, err: "-rate 1.5"},
		{args: []string{"-method", "sampling", "-rate", "1"}, err: "-rate 1"},
		{args: []string{"-method", "sampling", "-rate", "0"}, err: "-rate 0"},
		{args: []string{"-method", "delay", "-period", "-3"}, err: "-period -3"},
		{args: []string{"-method", "delay", "-period", "1"}, err: "-period 1"},
		{args: []string{"-groups", "-2"}, err: "-groups -2"},
		{args: []string{"-method", "topk"}, err: `unknown method "topk"`},
		{args: []string{"-sched", "-sched-epochs-per-level", "-3"}, err: "-sched-epochs-per-level -3"},
		{args: []string{"-method", "quant", "-sched", "-sched-epochs-per-level", "-1"}, err: "-sched-epochs-per-level -1"},
	} {
		args := append(slices.Clone(fleet), tc.args...)
		j, err := parseFlags(args).configs()
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%q: %v", args, err)
		case tc.err == "" && j.cfg.MethodName() != tc.method:
			t.Errorf("%q: method %s, want %s", args, j.cfg.MethodName(), tc.method)
		case tc.err == "" && fleet != nil && (!slices.Equal(j.nodes, []string{"a.sock", "b.sock"}) || j.parts != 2):
			t.Errorf("%q: nodes %q over %d parts, want a.sock, b.sock over 2", args, j.nodes, j.parts)
		case tc.err == "" && fleet == nil && (j.nodes != nil || j.parts != 4):
			t.Errorf("%q: nodes %q over %d parts, want in process over 4", args, j.nodes, j.parts)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%q: error %v, want one naming %q", args, err, tc.err)
		}
	}
}

// TestFailureHint: a checkpointed run that lost a node, timed out or met a
// protocol fault is told to rerun; one whose checkpoint is refused — say a
// version this binary no longer reads — is told to move the file, since a
// rerun would fail the same way; other failures, and any run without a
// checkpoint, get no hint.
func TestFailureHint(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("dist: epoch 3: node 1: %w", err) }
	for _, tc := range []struct {
		name string
		err  error
		ckpt string
		want string // substring of the hint; "" for none
	}{
		{"peer down", wrap(net.ErrPeerDown), "job.ck", "rerun the same command to resume from job.ck"},
		{"round timeout", wrap(net.ErrRoundTimeout), "job.ck", "rerun the same command to resume from job.ck"},
		{"protocol", wrap(net.ErrProtocol), "job.ck", "rerun the same command to resume from job.ck"},
		{"corrupt checkpoint", fmt.Errorf("%w: unsupported version 5", net.ErrCorruptCheckpoint), "job.ck",
			"delete or move it to start fresh"},
		{"other failure", errors.New("dist: model diverged"), "job.ck", ""},
		{"no checkpoint", wrap(net.ErrPeerDown), "", ""},
	} {
		got := failureHint(tc.err, tc.ckpt)
		switch {
		case tc.want == "" && got != "":
			t.Errorf("%s: hint %q, want none", tc.name, got)
		case tc.want != "" && !strings.Contains(got, tc.want):
			t.Errorf("%s: hint %q, want one saying %q", tc.name, got, tc.want)
		}
		if errors.Is(tc.err, net.ErrCorruptCheckpoint) && strings.Contains(got, "rerun") {
			t.Errorf("%s: hint %q suggests a rerun that cannot succeed", tc.name, got)
		}
	}
}
