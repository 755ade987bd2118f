package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestListAndErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"list"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"partitionheal", "churn", "eventuallyrooted", "frommodel", "trace", "repeat", "concat", "interleave"} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("list missing %q", name)
		}
	}
	if err := run(nil, &sb); err == nil {
		t.Error("no subcommand accepted")
	}
	if err := run([]string{"bogus"}, &sb); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"gen", "-scenario", "eventuallyrooted:4,1"}, &sb); err == nil {
		t.Error("gen without -o accepted")
	}
	if err := run([]string{"inspect"}, &sb); err == nil {
		t.Error("inspect without a source accepted")
	}
}

func TestGenInspectCertify(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "part.trace")
	var sb strings.Builder
	if err := run([]string{"gen", "-scenario", "partitionheal:6,2,4", "-o", trace}, &sb); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(trace); err != nil {
		t.Fatal(err)
	}

	sb.Reset()
	if err := run([]string{"inspect", "-in", trace, "-graphs"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"agents:          6", "prefix rounds:   4", "loop rounds:     1", "fingerprint:", "round   5 (loop)"} {
		if !strings.Contains(sb.String(), frag) {
			t.Errorf("inspect missing %q:\n%s", frag, sb.String())
		}
	}

	sb.Reset()
	if err := run([]string{"certify", "-in", trace}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"rooted every round:      no (first at round 1)", "rooted window:           5"} {
		if !strings.Contains(sb.String(), frag) {
			t.Errorf("certify missing %q:\n%s", frag, sb.String())
		}
	}
}

// TestRecordReplayBackendsAgree records a greedy-adversary run and
// replays its trace on both execution paths with per-round fingerprints;
// the replay output (diameters and fingerprint digests alike) must be
// identical — the CLI form of the exact-replay differential.
func TestRecordReplayBackendsAgree(t *testing.T) {
	prev := core.ForceAgents(false)
	defer core.ForceAgents(prev)
	trace := filepath.Join(t.TempDir(), "greedy.trace")
	var sb strings.Builder
	if err := run([]string{"record", "-model", "psi:4", "-adversary", "greedy",
		"-rounds", "6", "-o", trace}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "recorded 6 rounds") {
		t.Fatalf("record output:\n%s", sb.String())
	}

	replay := func(forceAgents bool) string {
		core.ForceAgents(forceAgents)
		var out strings.Builder
		if err := run([]string{"replay", "-in", trace, "-algorithm", "midpoint",
			"-rounds", "6", "-fingerprints"}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	agents := replay(true)
	dense := replay(false)
	if agents != dense {
		t.Fatalf("execution paths disagree on replay:\nagents:\n%s\ndense:\n%s", agents, dense)
	}
	if !strings.Contains(agents, "fp ") || strings.Contains(agents, "fp n/a") {
		t.Fatalf("fingerprints missing:\n%s", agents)
	}
}

func TestReplayScenarioSpecDirectly(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"replay", "-scenario", "churn:8,1,3,2,3", "-algorithm", "mean"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "replaying mean") || !strings.Contains(sb.String(), "round   6") {
		t.Fatalf("replay output:\n%s", sb.String())
	}
}
