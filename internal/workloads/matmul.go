// Package workloads builds the IR kernels the evaluation runs: the
// paper's tiled matmul (§5.2), the memset/STREAM bandwidth kernels
// behind the memory roof, dot-product and stencil kernels for the
// examples, and the synthetic sqlite3-style VDBE interpreter behind
// the hotspot study (§5.1, Table 2, Fig 3).
package workloads

import (
	"fmt"

	"mperf/internal/ir"
	"mperf/internal/vm"
)

// BuildMatmul adds the paper's §5.2 kernel to the module: a cache-
// blocked SGEMM over n×n matrices with TILE_SIZE = tile,
//
//	for (ii..; ii += T) for (jj..) for (kk..)
//	  for (i = ii..ii+T) for (j = jj..jj+T) {
//	    float sum = C[i*n+j];
//	    for (k = kk..kk+T) sum += A[i*n+k] * B[k*n+j];
//	    C[i*n+j] = sum;
//	  }
//
// plus the A/B/C globals. n must be a multiple of tile; tile must be a
// multiple of 8 so the trip-count hints license 8-lane vectorization
// of the j loop and 2-way interleaving of the k reduction.
func BuildMatmul(mod *ir.Module, n, tile int) (*ir.Func, error) {
	if err := checkMatmulSize(n, tile); err != nil {
		return nil, err
	}
	mod.NewGlobal("A", ir.F32, n*n)
	mod.NewGlobal("B", ir.F32, n*n)
	mod.NewGlobal("C", ir.F32, n*n)

	f := mod.NewFunc("matmul", ir.Void,
		ir.NewParam("a", ir.Ptr), ir.NewParam("b", ir.Ptr), ir.NewParam("c", ir.Ptr),
		ir.NewParam("n", ir.I64))
	f.SourceFile = "matmul.c"
	f.SourceLine = 12
	f.SetHint("trip_multiple.jloop", int64(tile))
	f.SetHint("trip_multiple.kloop", int64(tile))

	a, bp, c, np := f.Params[0], f.Params[1], f.Params[2], f.Params[3]
	tileC := ir.ConstInt(ir.I64, int64(tile))
	one := ir.ConstInt(ir.I64, 1)
	zero := ir.ConstInt(ir.I64, 0)

	b := ir.NewBuilder(f)
	entry := b.NewBlock("entry")
	iiloop := f.NewBlock("iiloop")
	jjloop := f.NewBlock("jjloop")
	kkloop := f.NewBlock("kkloop")
	iloop := f.NewBlock("iloop")
	jloop := f.NewBlock("jloop")
	kloop := f.NewBlock("kloop")
	kexit := f.NewBlock("kexit")
	ilatch := f.NewBlock("ilatch")
	kklatch := f.NewBlock("kklatch")
	jjlatch := f.NewBlock("jjlatch")
	iilatch := f.NewBlock("iilatch")
	exit := f.NewBlock("exit")

	b.SetBlock(entry)
	b.Br(iiloop)

	b.SetBlock(iiloop)
	ii := b.Phi(ir.I64)
	ii.SetName("ii")
	iiT := b.Add(ii, tileC)
	b.Br(jjloop)

	b.SetBlock(jjloop)
	jj := b.Phi(ir.I64)
	jj.SetName("jj")
	jjT := b.Add(jj, tileC)
	b.Br(kkloop)

	b.SetBlock(kkloop)
	kk := b.Phi(ir.I64)
	kk.SetName("kk")
	kkT := b.Add(kk, tileC)
	b.Br(iloop)

	b.SetBlock(iloop)
	i := b.Phi(ir.I64)
	i.SetName("i")
	iN := b.Mul(i, np)
	b.Br(jloop)

	b.SetBlock(jloop)
	j := b.Phi(ir.I64)
	j.SetName("j")
	cIdx := b.Add(iN, j)
	pc := b.GEP(c, cIdx, 4)
	c0 := b.Load(ir.F32, pc)
	b.Br(kloop)

	b.SetBlock(kloop)
	k := b.Phi(ir.I64)
	k.SetName("k")
	sum := b.Phi(ir.F32)
	sum.SetName("sum")
	aIdx := b.Add(iN, k)
	pa := b.GEP(a, aIdx, 4)
	av := b.Load(ir.F32, pa)
	kN := b.Mul(k, np)
	bIdx := b.Add(kN, j)
	pb := b.GEP(bp, bIdx, 4)
	bv := b.Load(ir.F32, pb)
	sumNext := b.FMA(av, bv, sum)
	kNext := b.Add(k, one)
	kc := b.ICmp(ir.PredLT, kNext, kkT)
	b.CondBr(kc, kloop, kexit)
	ir.AddIncoming(k, kk, jloop)
	ir.AddIncoming(k, kNext, kloop)
	ir.AddIncoming(sum, c0, jloop)
	ir.AddIncoming(sum, sumNext, kloop)

	b.SetBlock(kexit)
	b.Store(sumNext, pc)
	jNext := b.Add(j, one)
	jc := b.ICmp(ir.PredLT, jNext, jjT)
	b.CondBr(jc, jloop, ilatch)
	ir.AddIncoming(j, jj, iloop)
	ir.AddIncoming(j, jNext, kexit)

	b.SetBlock(ilatch)
	iNext := b.Add(i, one)
	ic := b.ICmp(ir.PredLT, iNext, iiT)
	b.CondBr(ic, iloop, kklatch)
	ir.AddIncoming(i, ii, kkloop)
	ir.AddIncoming(i, iNext, ilatch)

	b.SetBlock(kklatch)
	kkNext := b.Add(kk, tileC)
	kkc := b.ICmp(ir.PredLT, kkNext, np)
	b.CondBr(kkc, kkloop, jjlatch)
	ir.AddIncoming(kk, zero, jjloop)
	ir.AddIncoming(kk, kkNext, kklatch)

	b.SetBlock(jjlatch)
	jjNext := b.Add(jj, tileC)
	jjc := b.ICmp(ir.PredLT, jjNext, np)
	b.CondBr(jjc, jjloop, iilatch)
	ir.AddIncoming(jj, zero, iiloop)
	ir.AddIncoming(jj, jjNext, jjlatch)

	b.SetBlock(iilatch)
	iiNext := b.Add(ii, tileC)
	iic := b.ICmp(ir.PredLT, iiNext, np)
	b.CondBr(iic, iiloop, exit)
	ir.AddIncoming(ii, zero, entry)
	ir.AddIncoming(ii, iiNext, iilatch)

	b.SetBlock(exit)
	b.RetVoid()
	return f, nil
}

// checkMatmulSize is the one size rule of the tiled SGEMM, shared by
// BuildMatmul and MatmulSpec.
func checkMatmulSize(n, tile int) error {
	if n <= 0 || tile <= 0 || n%tile != 0 || tile%8 != 0 {
		return fmt.Errorf("workloads: matmul needs n %% tile == 0 and tile %% 8 == 0, got n=%d tile=%d", n, tile)
	}
	return nil
}

// SeedMatmul fills A and B with a deterministic pattern and zeroes C.
func SeedMatmul(m *vm.Machine, n int) error {
	aAddr, err := m.GlobalAddr("A")
	if err != nil {
		return err
	}
	bAddr, err := m.GlobalAddr("B")
	if err != nil {
		return err
	}
	cAddr, err := m.GlobalAddr("C")
	if err != nil {
		return err
	}
	for i := 0; i < n*n; i++ {
		av := float32((i%13)-6) * 0.125
		bv := float32((i%7)-3) * 0.25
		if err := m.WriteF32(aAddr+uint64(i*4), av); err != nil {
			return err
		}
		if err := m.WriteF32(bAddr+uint64(i*4), bv); err != nil {
			return err
		}
		if err := m.WriteF32(cAddr+uint64(i*4), 0); err != nil {
			return err
		}
	}
	return nil
}

// RunMatmul executes the kernel over the module's globals.
func RunMatmul(m *vm.Machine, n int) error {
	aAddr, _ := m.GlobalAddr("A")
	bAddr, _ := m.GlobalAddr("B")
	cAddr, _ := m.GlobalAddr("C")
	_, err := m.Run("matmul", aAddr, bAddr, cAddr, uint64(n))
	return err
}

// CheckMatmul verifies a deterministic subset of C entries against a
// host-side reference computation (full verification for small n,
// sampled rows for large n).
func CheckMatmul(m *vm.Machine, n int) error {
	aAddr, _ := m.GlobalAddr("A")
	bAddr, _ := m.GlobalAddr("B")
	cAddr, _ := m.GlobalAddr("C")
	rows := n
	if n > 64 {
		rows = 8 // sample
	}
	for r := 0; r < rows; r++ {
		i := r * (n / rows)
		if i >= n {
			break
		}
		for j := 0; j < n; j += 1 + n/16 {
			var want float32
			for k := 0; k < n; k++ {
				av, _ := m.ReadF32(aAddr + uint64((i*n+k)*4))
				bv, _ := m.ReadF32(bAddr + uint64((k*n+j)*4))
				want += av * bv
			}
			got, err := m.ReadF32(cAddr + uint64((i*n+j)*4))
			if err != nil {
				return err
			}
			diff := float64(got - want)
			if diff < 0 {
				diff = -diff
			}
			tol := 1e-3 * (1 + float64(abs32(want)))
			if diff > tol {
				return fmt.Errorf("workloads: C[%d][%d] = %g, want %g", i, j, got, want)
			}
		}
	}
	return nil
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// MatmulFLOPs returns the nominal FLOP count of the kernel (2·n³).
func MatmulFLOPs(n int) uint64 { return 2 * uint64(n) * uint64(n) * uint64(n) }
