package consensus

import (
	"flag"
	"fmt"
	"runtime"
	"strconv"

	"repro/internal/core"
)

// This file is the facade over the batch plane's intra-step
// parallelism knob (core.BatchRunner.SetParallelism): the process-wide
// default, the shared "-batch-parallelism" flag helper for the cmds,
// and — in session.go / sweep.go — the WithBatchParallelism and
// SweepBatchParallelism options. Parallel stepping is bit-identical to
// sequential stepping at every setting, so the knob only trades
// latency for cores, never results.

// ProcessBatchParallelism returns the process-wide default intra-step
// worker count for batched execution (1 = sequential unless
// REPRO_BATCH_PARALLELISM or SetProcessBatchParallelism says
// otherwise).
func ProcessBatchParallelism() int { return core.DefaultBatchParallelism() }

// SetProcessBatchParallelism sets the process-wide default intra-step
// worker count: n >= 1 pins it, n <= 0 selects auto (GOMAXPROCS). It
// returns the previous resolved default.
func SetProcessBatchParallelism(n int) int { return core.SetDefaultBatchParallelism(n) }

// BatchParallelismSelection is the result of BatchParallelismFlag: a
// pending -batch-parallelism flag value to be installed after parsing.
type BatchParallelismSelection struct {
	value string
}

// BatchParallelismFlag registers the canonical "-batch-parallelism"
// flag on fs and returns the selection to Install after parsing:
// precedence is explicit flag > REPRO_BATCH_PARALLELISM environment
// variable > sequential.
func BatchParallelismFlag(fs *flag.FlagSet) *BatchParallelismSelection {
	sel := &BatchParallelismSelection{}
	fs.StringVar(&sel.value, "batch-parallelism", "",
		"intra-step batch workers: auto | N >= 1 (default $REPRO_BATCH_PARALLELISM or 1)")
	return sel
}

// Install applies the parsed flag value to the process default. When
// the flag was not given, the process default is left untouched.
func (s *BatchParallelismSelection) Install() error {
	if s.value == "" {
		return nil
	}
	if s.value == "auto" {
		core.SetDefaultBatchParallelism(0)
		return nil
	}
	k, err := strconv.Atoi(s.value)
	if err != nil || k < 1 {
		return fmt.Errorf("consensus: -batch-parallelism: want auto or an integer >= 1, got %q", s.value)
	}
	core.SetDefaultBatchParallelism(k)
	return nil
}

// Value returns the worker count the selection resolves to right now.
func (s *BatchParallelismSelection) Value() int {
	if s.value == "" {
		return ProcessBatchParallelism()
	}
	if s.value == "auto" {
		return runtime.GOMAXPROCS(0)
	}
	k, err := strconv.Atoi(s.value)
	if err != nil || k < 1 {
		return ProcessBatchParallelism()
	}
	return k
}
