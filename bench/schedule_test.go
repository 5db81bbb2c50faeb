package main

import (
	"reflect"
	"slices"
	"testing"
	"time"
)

func sequence(seed int64, n, count int) []int {
	s := newKeySequence(seed, n)
	out := make([]int, count)
	for i := range out {
		out[i] = s.at(i)
	}
	return out
}

func TestSeedDecidesOpOrder(t *testing.T) {
	a, b, c := sequence(7, 72, 720), sequence(7, 72, 720), sequence(8, 72, 720)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two op sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same op sequence")
	}
	// Every round is a permutation of the catalog, so the mix is the
	// same whatever the seed.
	for r := 0; r < 10; r++ {
		round := slices.Clone(a[r*72 : (r+1)*72])
		slices.Sort(round)
		for i, k := range round {
			if k != i {
				t.Fatalf("round %d is not a permutation: %v", r, round)
			}
		}
	}
}

func TestSeedDecidesPoissonSchedule(t *testing.T) {
	const rate = 300.0
	d := 20 * time.Second
	a, b, c := poissonSchedule(3, rate, d), poissonSchedule(3, rate, d), poissonSchedule(4, rate, d)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 6000 arrivals expected; a Poisson count's sd is ~77.
	if n := len(a); n < 5600 || n > 6400 {
		t.Fatalf("%d arrivals in %v at %v/s", n, d, rate)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= d {
			t.Fatalf("schedule not increasing within %v at %d", d, i)
		}
	}
}
