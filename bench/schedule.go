package main

import (
	"math/rand/v2"
	"time"
)

// The seed decides only the order in which ops run and, for the open
// loop, when requests arrive. The op mix is balanced by construction:
// every round runs each catalog key exactly once in a seeded order, and
// loops stop on round boundaries. Run-to-run differences in a metric
// therefore come from the host, not from one seed drawing more of the
// expensive keys than another.

// rng returns the generator for one stream of a run. stream separates
// independent decisions (round orders, arrival times) so that adding
// draws to one never shifts another.
func rng(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// roundPerm is the seeded order of n keys in round r.
func roundPerm(seed int64, r, n int) []int {
	return rng(seed, 1<<32|uint64(r)).Perm(n)
}

// keySequence returns the key of the i-th op: rounds of n keys, each
// round its own seeded permutation. It memoizes the current round.
type keySequence struct {
	seed  int64
	n     int
	round int
	perm  []int
}

func newKeySequence(seed int64, n int) *keySequence {
	return &keySequence{seed: seed, n: n, round: -1}
}

func (k *keySequence) at(i int) int {
	if r := i / k.n; r != k.round {
		k.round, k.perm = r, roundPerm(k.seed, r, k.n)
	}
	return k.perm[i%k.n]
}

// poissonSchedule returns the due times of an open loop sending rate
// requests per second for d: exponential inter-arrival gaps drawn from
// the seed's arrival stream.
func poissonSchedule(seed int64, rate float64, d time.Duration) []time.Duration {
	r := rng(seed, 2)
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}
