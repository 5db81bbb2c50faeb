package workloads

import (
	"fmt"
	"math"
	"slices"

	"mperf/internal/ir"
	"mperf/internal/vm"
)

// loopMultiple is the trip-count multiple the streaming kernels promise
// the vectorizer and the unroller (`trip_multiple.loop`). The vectorizer
// emits no remainder loop, so a kernel whose loop runs exactly n times
// under that promise is only correct when n is a multiple of it.
const loopMultiple = 16

// kernel describes an array kernel as data: one IR function over
// global arrays, called with the arrays' addresses and its size n. Its
// Spec is derived by spec; the globals are declared after the function
// in the order listed, which fixes the memory layout.
type kernel struct {
	name, entry string
	// desc is a format string with one %d verb for n.
	desc  string
	build func(mod *ir.Module) *ir.Func
	// words sizes the kernel by Params.MemsetWords instead of
	// Params.Elems.
	words bool
	// tripN marks a kernel whose loop runs exactly n times under the
	// loopMultiple hint, so Lookup refuses other sizes.
	tripN  bool
	arrays []array
	// args builds the entry arguments from the arrays' addresses; nil
	// passes the addresses followed by n.
	args func(addrs []uint64, n int) []uint64
}

// array is one global of a kernel.
type array struct {
	name string
	elem ir.Type
	// count is the length for size n; nil means n elements.
	count func(n int) int
	// fill returns, for size n, the raw bits of element i (f32
	// elements as their IEEE bits); nil leaves the array zero.
	fill func(n int) func(i int) uint64
}

// spmvNNZPerRow fixes the synthetic CSR matrix's density: 8 nonzeros
// in every row (the spmv description states it), columns scattered
// like the gather/scatter indices.
const spmvNNZPerRow = 8

// kernels is the table of array kernels: the paper's dot, triad,
// stencil and memset, and the memory-bound suite after Volokitin et
// al. (PAPERS.md).
var kernels = []kernel{
	{name: "dot", entry: "dot", desc: "f32 dot product over %d elements (FP reduction)",
		build: BuildDot, tripN: true,
		arrays: []array{{name: "da", elem: ir.F32, fill: f32Fill}, {name: "db", elem: ir.F32, fill: f32Fill}}},
	{name: "triad", entry: "triad", desc: "STREAM triad over %d f32 elements (bandwidth kernel)",
		build: BuildTriad, tripN: true,
		arrays: []array{{name: "ta", elem: ir.F32}, {name: "tb", elem: ir.F32, fill: f32Fill}, {name: "tc", elem: ir.F32, fill: f32Fill}},
		args:   scaled(1.5)},
	{name: "stencil", entry: "stencil3", desc: "1D 3-point stencil over %d f32 elements",
		build:  BuildStencil,
		arrays: []array{{name: "sout", elem: ir.F32}, {name: "sin", elem: ir.F32, fill: f32Fill}},
		// The kernel runs 0..m over pointers offset to the first
		// interior element; m = n-2 keeps in[i+1] in bounds. At the
		// power-of-two sizes m is not a multiple of loopMultiple, so
		// the vectorized loop overruns the interior: a known bug whose
		// fix moves pinned profile bytes, hence no tripN here yet.
		args: func(a []uint64, n int) []uint64 { return []uint64{a[0] + 4, a[1] + 4, uint64(n - 2)} }},
	{name: "memset", entry: "memset64", desc: "streaming memset of %d 8-byte words (memory-roof kernel)",
		build: BuildMemset, words: true, tripN: true,
		// No fill: a seeded kernel bakes its whole data image into the
		// program, and every instantiation would copy 8 MiB of zeros.
		arrays: []array{{name: "buf", elem: ir.I64}},
		args:   func(a []uint64, n int) []uint64 { return []uint64{a[0], 0xAB, uint64(n)} }},
	{name: "stream_copy", entry: "stream_copy", desc: "STREAM copy over %d f32 elements (pure bandwidth, zero FLOPs)",
		build: BuildStreamCopy, tripN: true,
		arrays: []array{{name: "cpa", elem: ir.F32}, {name: "cpb", elem: ir.F32, fill: f32Fill}}},
	{name: "stream_scale", entry: "stream_scale", desc: "STREAM scale over %d f32 elements (bandwidth kernel)",
		build: BuildStreamScale, tripN: true,
		arrays: []array{{name: "sla", elem: ir.F32}, {name: "slb", elem: ir.F32, fill: f32Fill}},
		args:   scaled(0.75)},
	{name: "stream_add", entry: "stream_add", desc: "STREAM add over %d f32 elements (three-stream bandwidth kernel)",
		build: BuildStreamAdd, tripN: true,
		arrays: []array{{name: "ada", elem: ir.F32}, {name: "adb", elem: ir.F32, fill: f32Fill}, {name: "adc", elem: ir.F32, fill: f32Fill}}},
	{name: "gather", entry: "gather", desc: "irregular gather over %d f32 elements (data-dependent loads)",
		build:  BuildGather,
		arrays: []array{{name: "ga", elem: ir.F32}, {name: "gb", elem: ir.F32, fill: f32Fill}, {name: "gidx", elem: ir.I64, fill: scattered}}},
	{name: "scatter", entry: "scatter", desc: "irregular scatter over %d f32 elements (data-dependent stores)",
		build:  BuildScatter,
		arrays: []array{{name: "sa", elem: ir.F32}, {name: "sb", elem: ir.F32, fill: f32Fill}, {name: "sidx", elem: ir.I64, fill: scattered}}},
	{name: "spmv", entry: "spmv", desc: "CSR SpMV, %d rows × 8 nnz/row (irregular memory-bound kernel)",
		build: BuildSpMV,
		arrays: []array{
			{name: "sy", elem: ir.F32},
			{name: "sval", elem: ir.F32, count: nnz, fill: f32Fill},
			{name: "scol", elem: ir.I64, count: nnz, fill: scattered},
			{name: "srowptr", elem: ir.I64, count: func(n int) int { return n + 1 }, fill: rowStarts},
			{name: "sx", elem: ir.F32, fill: f32Fill},
		}},
	{name: "ptrchase", entry: "ptrchase", desc: "pointer chase over %d-entry cycle (latency-bound, zero MLP)",
		build:  BuildPtrChase,
		arrays: []array{{name: "chain", elem: ir.I64, fill: chaseNext}},
		args:   func(a []uint64, n int) []uint64 { return []uint64{a[0], 0, uint64(n)} }},
}

// spec wires the kernel for the given parameters.
func (k *kernel) spec(p Params) (*Spec, error) {
	n := p.elems()
	if k.words {
		n = p.memsetWords()
	}
	if k.tripN && n%loopMultiple != 0 {
		return nil, fmt.Errorf("workloads: %s runs its loop in steps of %d, so its size must be a multiple of %d, got %d",
			k.name, loopMultiple, loopMultiple, n)
	}
	names := make([]string, len(k.arrays))
	for i, a := range k.arrays {
		names[i] = a.name
	}
	s := &Spec{
		Name:        k.name,
		Description: fmt.Sprintf(k.desc, n),
		Entry:       k.entry,
		Build: func(mod *ir.Module) error {
			k.build(mod)
			for _, a := range k.arrays {
				mod.NewGlobal(a.name, a.elem, a.len(n))
			}
			return nil
		},
		Args: func(m *vm.Machine) ([]uint64, error) {
			addrs, err := globalAddrs(m, names...)
			if err != nil {
				return nil, err
			}
			if k.args == nil {
				return append(addrs, uint64(n)), nil
			}
			return k.args(addrs, n), nil
		},
	}
	if slices.ContainsFunc(k.arrays, func(a array) bool { return a.fill != nil }) {
		s.Seed = func(m *vm.Machine) error {
			for _, a := range k.arrays {
				if err := a.seed(m, n); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return s, nil
}

// seed writes the array's fill at size n; without one it stays zero.
func (a array) seed(m *vm.Machine, n int) error {
	if a.fill == nil {
		return nil
	}
	addr, err := m.GlobalAddr(a.name)
	if err != nil {
		return err
	}
	size, fill := uint64(a.elem.Size()), a.fill(n)
	for i := range a.len(n) {
		v, at := fill(i), addr+uint64(i)*size
		if a.elem == ir.F32 {
			err = m.WriteF32(at, math.Float32frombits(uint32(v)))
		} else {
			err = m.WriteU64(at, v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (a array) len(n int) int {
	if a.count == nil {
		return n
	}
	return a.count(n)
}

// scaled passes the addresses, the f32 scalar s and n: the STREAM
// triad and scale signatures.
func scaled(s float32) func(a []uint64, n int) []uint64 {
	return func(a []uint64, n int) []uint64 {
		return append(a, uint64(math.Float32bits(s)), uint64(n))
	}
}

// f32Fill is the input of every f32 array: a short sawtooth of exact
// binary fractions.
func f32Fill(int) func(int) uint64 {
	return func(i int) uint64 { return uint64(math.Float32bits(float32((i%11)-5) * 0.5)) }
}

// scattered is the deterministic index pattern gather, scatter and the
// SpMV columns share: (i*7+3) mod n spreads consecutive iterations
// across the array so consecutive accesses land on different lines for
// any n > ~16.
func scattered(n int) func(int) uint64 {
	return func(i int) uint64 { return uint64((i*7 + 3) % n) }
}

// chaseNext is a single-cycle permutation for the pointer chase:
// next[i] = (i + stride) mod n with gcd(stride, n) = 1, stride chosen
// near n/2 so successive loads jump half the array.
func chaseNext(n int) func(int) uint64 {
	stride := n/2 + 1
	for gcd(stride, n) != 1 {
		stride++
	}
	return func(i int) uint64 { return uint64((i + stride) % n) }
}

// rowStarts is the CSR row pointer of spmvNNZPerRow nonzeros per row.
func rowStarts(int) func(int) uint64 {
	return func(r int) uint64 { return uint64(r * spmvNNZPerRow) }
}

func nnz(rows int) int { return rows * spmvNNZPerRow }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
