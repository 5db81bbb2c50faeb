package workloads

import (
	"fmt"

	"mperf/internal/ir"
	"mperf/internal/vm"
)

// The sqlite3 stand-in: the paper's hotspot study (§5.1) profiles the
// sqlite3 benchmark from the LLVM test suite, whose top functions are
// the VDBE bytecode interpreter (sqlite3VdbeExec), the LIKE-operator
// matcher (patternCompare) and the B-tree record decoder
// (sqlite3BtreeParseCellPtr). This builder reproduces that workload
// shape in mini-IR: an indirect-dispatch interpreter whose opcodes
// exercise a byte-matching loop, a varint decoder, and assorted
// register traffic. The instruction mixes match the originals'
// characters: the interpreter is indirect-branch bound, the matcher is
// compare-and-branch bound, the decoder is shift/or ALU bound — which
// is what makes the per-function IPC and instruction-count contrasts
// of Table 2 emerge from the pipeline models rather than from tuning.

// VDBE opcode numbers (stored in the bytecode global).
const (
	opHalt   = 0
	opAdd    = 1
	opColumn = 2
	opLike   = 3
	opNext   = 4
	opRow    = 5
	opSerial = 6
	opMove   = 7
)

// SqliteConfig sizes the synthetic database workload.
type SqliteConfig struct {
	ProgLen  int `json:"prog_len"`  // bytecode program length (ops per row)
	Rows     int `json:"rows"`      // rows scanned per query
	Queries  int `json:"queries"`   // queries per run
	CellArea int `json:"cell_area"` // bytes of synthetic B-tree cell data
	TextArea int `json:"text_area"` // bytes of text scanned by LIKE
	PatLen   int `json:"pat_len"`   // LIKE pattern length
}

// DefaultSqliteConfig returns a workload that runs in a few hundred
// milliseconds of host time while producing stable hotspot shares.
func DefaultSqliteConfig() SqliteConfig {
	return SqliteConfig{ProgLen: 64, Rows: 300, Queries: 4, CellArea: 4096, TextArea: 4096, PatLen: 6}
}

// Validate rejects a configuration BuildSqliteSim cannot lay out.
func (c SqliteConfig) Validate() error {
	if c.ProgLen < 8 || c.Rows < 1 || c.Queries < 1 || c.CellArea < 0 || c.TextArea < 0 || c.PatLen < 0 {
		return fmt.Errorf("workloads: sqlite config too small: %+v", c)
	}
	return nil
}

// BuildSqliteSim adds the full workload to the module and returns the
// driver function `runQueries`.
func BuildSqliteSim(mod *ir.Module, cfg SqliteConfig) (*ir.Func, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mod.NewGlobal("bytecode", ir.I8, cfg.ProgLen)
	mod.NewGlobal("cells", ir.I8, cfg.CellArea)
	mod.NewGlobal("liketext", ir.I8, cfg.TextArea)
	mod.NewGlobal("likepat", ir.I8, cfg.PatLen+1)
	mod.NewGlobal("vdberegs", ir.I64, 32)

	parseCell := buildParseCellPtr(mod)
	serialGet := buildSerialGet(mod)
	memCopy := buildMemCopy(mod)
	pattern := buildPatternCompare(mod)
	vdbe := buildVdbeExec(mod, cfg, parseCell, serialGet, memCopy, pattern)
	return buildDriver(mod, cfg, vdbe), nil
}

// buildParseCellPtr: varint decoding — shift/or/compare ALU chains
// with a data-dependent exit, the sqlite3BtreeParseCellPtr character.
func buildParseCellPtr(mod *ir.Module) *ir.Func {
	f := mod.NewFunc("sqlite3BtreeParseCellPtr", ir.I64, ir.NewParam("cell", ir.Ptr))
	f.SourceFile = "btree.c"
	f.SourceLine = 4810
	b := ir.NewBuilder(f)
	entry := b.NewBlock("entry")
	vloop := f.NewBlock("vloop")
	vdone := f.NewBlock("vdone")
	b.SetBlock(entry)
	b.Br(vloop)

	b.SetBlock(vloop)
	off := b.Phi(ir.I64)
	acc := b.Phi(ir.I64)
	shift := b.Phi(ir.I64)
	p := b.GEP(f.Params[0], off, 1)
	byt := b.Load(ir.I8, p)
	w := b.Convert(ir.OpZExt, byt, ir.I64)
	low := b.And(w, ir.ConstInt(ir.I64, 0x7F))
	shifted := b.Shl(low, shift)
	acc2 := b.Or(acc, shifted)
	off2 := b.Add(off, ir.ConstInt(ir.I64, 1))
	shift2 := b.Add(shift, ir.ConstInt(ir.I64, 7))
	more := b.ICmp(ir.PredGE, w, ir.ConstInt(ir.I64, 128))
	limit := b.ICmp(ir.PredLT, off2, ir.ConstInt(ir.I64, 9))
	cont := b.And(bool2i1(b, more), bool2i1(b, limit))
	b.CondBr(cont, vloop, vdone)
	ir.AddIncoming(off, ir.ConstInt(ir.I64, 0), entry)
	ir.AddIncoming(off, off2, vloop)
	ir.AddIncoming(acc, ir.ConstInt(ir.I64, 0), entry)
	ir.AddIncoming(acc, acc2, vloop)
	ir.AddIncoming(shift, ir.ConstInt(ir.I64, 0), entry)
	ir.AddIncoming(shift, shift2, vloop)

	b.SetBlock(vdone)
	// Header size arithmetic: mask/shift mix over the decoded varint.
	hdr := b.LShr(acc2, ir.ConstInt(ir.I64, 3))
	key := b.And(acc2, ir.ConstInt(ir.I64, 0xFFF))
	sz := b.Add(hdr, key)
	clamped := b.And(sz, ir.ConstInt(ir.I64, 0x7FFFFFFF))
	b.Ret(clamped)
	return f
}

// bool2i1 is a no-op adapter (ICmp already yields i1); it keeps call
// sites readable where a logical AND of two conditions is built.
func bool2i1(_ *ir.Builder, v ir.Value) ir.Value { return v }

// buildSerialGet: type-dispatched field decoding — a small switch plus
// width-dependent loads (sqlite3VdbeSerialGet's character).
func buildSerialGet(mod *ir.Module) *ir.Func {
	f := mod.NewFunc("sqlite3VdbeSerialGet", ir.I64,
		ir.NewParam("buf", ir.Ptr), ir.NewParam("ty", ir.I64))
	f.SourceFile = "vdbeaux.c"
	f.SourceLine = 3921
	b := ir.NewBuilder(f)
	b.NewBlock("entry")
	c1 := f.NewBlock("t1")
	c2 := f.NewBlock("t2")
	c4 := f.NewBlock("t4")
	c8 := f.NewBlock("t8")
	join := f.NewBlock("join")
	b.Switch(f.Params[1], c8, []int64{1, 2, 4}, []*ir.Block{c1, c2, c4})

	b.SetBlock(c1)
	v1 := b.Load(ir.I8, f.Params[0])
	e1 := b.Convert(ir.OpZExt, v1, ir.I64)
	b.Br(join)
	b.SetBlock(c2)
	v2 := b.Load(ir.I16, f.Params[0])
	e2 := b.Convert(ir.OpZExt, v2, ir.I64)
	b.Br(join)
	b.SetBlock(c4)
	v4 := b.Load(ir.I32, f.Params[0])
	e4 := b.Convert(ir.OpZExt, v4, ir.I64)
	b.Br(join)
	b.SetBlock(c8)
	v8 := b.Load(ir.I64, f.Params[0])
	b.Br(join)

	b.SetBlock(join)
	out := b.Phi(ir.I64)
	ir.AddIncoming(out, e1, c1)
	ir.AddIncoming(out, e2, c2)
	ir.AddIncoming(out, e4, c4)
	ir.AddIncoming(out, v8, c8)
	masked := b.And(out, ir.ConstInt(ir.I64, 0x7FFFFFFFFFFF))
	b.Ret(masked)
	return f
}

// buildMemCopy: a 16-byte register-to-register style copy loop
// (sqlite3VdbeMemShallowCopy's character: short, load/store bound).
func buildMemCopy(mod *ir.Module) *ir.Func {
	f := mod.NewFunc("sqlite3VdbeMemShallowCopy", ir.Void,
		ir.NewParam("dst", ir.Ptr), ir.NewParam("src", ir.Ptr))
	f.SourceFile = "vdbemem.c"
	f.SourceLine = 1204
	lp := startLoop(f, ir.ConstInt(ir.I64, 16))
	b := lp.b
	ps := b.GEP(f.Params[1], lp.iv, 1)
	pd := b.GEP(f.Params[0], lp.iv, 1)
	v := b.Load(ir.I8, ps)
	b.Store(v, pd)
	lp.finish()
	b.RetVoid()
	return f
}

// buildPatternCompare: the LIKE matcher — byte loads, compares and
// branches with a data-dependent wildcard path; almost no ALU beyond
// the comparisons, which is why its x86/RISC-V instruction ratio is
// the highest of the three hotspots in Table 2.
func buildPatternCompare(mod *ir.Module) *ir.Func {
	f := mod.NewFunc("patternCompare", ir.I64,
		ir.NewParam("pat", ir.Ptr), ir.NewParam("str", ir.Ptr),
		ir.NewParam("plen", ir.I64), ir.NewParam("slen", ir.I64))
	f.SourceFile = "func.c"
	f.SourceLine = 618
	b := ir.NewBuilder(f)
	entry := b.NewBlock("entry")
	ploop := f.NewBlock("ploop")
	checkChar := f.NewBlock("checkchar")
	wildcard := f.NewBlock("wildcard")
	wloop := f.NewBlock("wloop")
	wnext := f.NewBlock("wnext")
	advance := f.NewBlock("advance")
	fail := f.NewBlock("fail")
	done := f.NewBlock("done")

	pat, str, plen, slen := f.Params[0], f.Params[1], f.Params[2], f.Params[3]
	one := ir.ConstInt(ir.I64, 1)

	b.SetBlock(entry)
	b.Br(ploop)

	b.SetBlock(ploop)
	pi := b.Phi(ir.I64)
	si := b.Phi(ir.I64)
	pdoneC := b.ICmp(ir.PredGE, pi, plen)
	b.CondBr(pdoneC, done, checkChar)

	b.SetBlock(checkChar)
	pcByte := b.Load(ir.I8, b.GEP(pat, pi, 1))
	pcW := b.Convert(ir.OpZExt, pcByte, ir.I64)
	isWild := b.ICmp(ir.PredEQ, pcW, ir.ConstInt(ir.I64, '%'))
	b.CondBr(isWild, wildcard, advance)

	// wildcard: scan forward in str until the next pattern byte matches.
	b.SetBlock(wildcard)
	nextPi := b.Add(pi, one)
	atEnd := b.ICmp(ir.PredGE, nextPi, plen)
	b.CondBr(atEnd, done, wloop)

	b.SetBlock(wloop)
	wsi := b.Phi(ir.I64)
	sEnd := b.ICmp(ir.PredGE, wsi, slen)
	b.CondBr(sEnd, fail, wnext)

	b.SetBlock(wnext)
	want := b.Load(ir.I8, b.GEP(pat, nextPi, 1))
	got := b.Load(ir.I8, b.GEP(str, wsi, 1))
	wEq := b.ICmp(ir.PredEQ, b.Convert(ir.OpZExt, want, ir.I64), b.Convert(ir.OpZExt, got, ir.I64))
	wsiNext := b.Add(wsi, one)
	b.CondBr(wEq, ploop, wloop)
	ir.AddIncoming(wsi, si, wildcard)
	ir.AddIncoming(wsi, wsiNext, wnext)

	// advance: literal byte must match.
	b.SetBlock(advance)
	sEnd2 := b.ICmp(ir.PredGE, si, slen)
	scByte := b.Load(ir.I8, b.GEP(str, b.And(si, b.Sub(slen, one)), 1))
	scW := b.Convert(ir.OpZExt, scByte, ir.I64)
	eq := b.ICmp(ir.PredEQ, pcW, scW)
	ok := b.And(eq, b.Xor(sEnd2, ir.ConstInt(ir.I1, 1)))
	piNext := b.Add(pi, one)
	siNext := b.Add(si, one)
	b.CondBr(ok, ploop, fail)

	ir.AddIncoming(pi, ir.ConstInt(ir.I64, 0), entry)
	ir.AddIncoming(pi, piNext, advance)
	ir.AddIncoming(pi, nextPi, wnext)
	ir.AddIncoming(si, ir.ConstInt(ir.I64, 0), entry)
	ir.AddIncoming(si, siNext, advance)
	ir.AddIncoming(si, wsiNext, wnext)

	b.SetBlock(fail)
	b.Ret(ir.ConstInt(ir.I64, 0))
	b.SetBlock(done)
	b.Ret(ir.ConstInt(ir.I64, 1))
	return f
}

// buildVdbeExec: the bytecode interpreter — an indirect-dispatch loop
// whose per-opcode handlers touch the register file and call into the
// helper functions.
func buildVdbeExec(mod *ir.Module, cfg SqliteConfig,
	parseCell, serialGet, memCopy, pattern *ir.Func) *ir.Func {

	f := mod.NewFunc("sqlite3VdbeExec", ir.I64,
		ir.NewParam("prog", ir.Ptr), ir.NewParam("rows", ir.I64))
	f.SourceFile = "vdbe.c"
	f.SourceLine = 703
	regs := mod.GlobalByName("vdberegs")
	cells := mod.GlobalByName("cells")
	text := mod.GlobalByName("liketext")
	pat := mod.GlobalByName("likepat")

	b := ir.NewBuilder(f)
	entry := b.NewBlock("entry")
	dispatch := f.NewBlock("dispatch")
	cAdd := f.NewBlock("op.add")
	cColumn := f.NewBlock("op.column")
	cLike := f.NewBlock("op.like")
	cNext := f.NewBlock("op.next")
	cRow := f.NewBlock("op.row")
	cSerial := f.NewBlock("op.serial")
	cMove := f.NewBlock("op.move")
	halt := f.NewBlock("halt")

	one := ir.ConstInt(ir.I64, 1)
	zero := ir.ConstInt(ir.I64, 0)

	b.SetBlock(entry)
	b.Br(dispatch)

	b.SetBlock(dispatch)
	pc := b.Phi(ir.I64)
	pc.SetName("pc")
	row := b.Phi(ir.I64)
	row.SetName("row")
	nrows := b.Phi(ir.I64)
	nrows.SetName("nrows")
	opByte := b.Load(ir.I8, b.GEP(f.Params[0], pc, 1))
	op := b.Convert(ir.OpZExt, opByte, ir.I64)
	b.Switch(op, halt,
		[]int64{opAdd, opColumn, opLike, opNext, opRow, opSerial, opMove},
		[]*ir.Block{cAdd, cColumn, cLike, cNext, cRow, cSerial, cMove})

	pcPlus := func() *ir.Instr { return b.Add(pc, one) }

	// op.add: r[a] = r[b] + r[c] with indices derived from pc.
	b.SetBlock(cAdd)
	ra := b.And(pc, ir.ConstInt(ir.I64, 31))
	rb := b.And(b.Add(pc, ir.ConstInt(ir.I64, 7)), ir.ConstInt(ir.I64, 31))
	va := b.Load(ir.I64, b.GEP(regs, ra, 8))
	vb := b.Load(ir.I64, b.GEP(regs, rb, 8))
	sum := b.Add(va, vb)
	b.Store(sum, b.GEP(regs, ra, 8))
	addPC := pcPlus()
	b.Br(dispatch)

	// op.column: decode a B-tree cell.
	b.SetBlock(cColumn)
	cellOff := b.And(b.Mul(pc, ir.ConstInt(ir.I64, 13)), ir.ConstInt(ir.I64, int64(cfg.CellArea-16)))
	cellPtr := b.GEP(cells, cellOff, 1)
	colV := b.Call(parseCell, cellPtr)
	b.Store(colV, b.GEP(regs, ir.ConstInt(ir.I64, 2), 8))
	colPC := pcPlus()
	b.Br(dispatch)

	// op.like: run the pattern matcher over a text window.
	b.SetBlock(cLike)
	txtOff := b.And(b.Mul(pc, ir.ConstInt(ir.I64, 37)), ir.ConstInt(ir.I64, int64(cfg.TextArea-64)))
	txtPtr := b.GEP(text, txtOff, 1)
	likeV := b.Call(pattern, pat, txtPtr,
		ir.ConstInt(ir.I64, int64(cfg.PatLen)), ir.ConstInt(ir.I64, 48))
	b.Store(likeV, b.GEP(regs, ir.ConstInt(ir.I64, 3), 8))
	likePC := pcPlus()
	b.Br(dispatch)

	// op.next: advance the cursor — loop the program for the next row.
	b.SetBlock(cNext)
	rowNext := b.Sub(row, one)
	moreRows := b.ICmp(ir.PredGT, rowNext, zero)
	b.CondBr(moreRows, dispatch, halt)

	// op.row: emit a result row — light register traffic.
	b.SetBlock(cRow)
	r0 := b.Load(ir.I64, b.GEP(regs, zero, 8))
	r1 := b.Load(ir.I64, b.GEP(regs, one, 8))
	mixed := b.Xor(r0, r1)
	b.Store(mixed, b.GEP(regs, ir.ConstInt(ir.I64, 4), 8))
	rowPC := pcPlus()
	b.Br(dispatch)

	// op.serial: decode a typed field.
	b.SetBlock(cSerial)
	ty := b.And(pc, ir.ConstInt(ir.I64, 7))
	serOff := b.And(b.Mul(pc, ir.ConstInt(ir.I64, 11)), ir.ConstInt(ir.I64, int64(cfg.CellArea-16)))
	serV := b.Call(serialGet, b.GEP(cells, serOff, 1), ty)
	b.Store(serV, b.GEP(regs, ir.ConstInt(ir.I64, 5), 8))
	serPC := pcPlus()
	b.Br(dispatch)

	// op.move: shallow-copy a register.
	b.SetBlock(cMove)
	sOff := b.And(pc, ir.ConstInt(ir.I64, 15))
	dOff := b.And(b.Add(pc, ir.ConstInt(ir.I64, 3)), ir.ConstInt(ir.I64, 15))
	b.Call(memCopy, b.GEP(regs, dOff, 8), b.GEP(regs, sOff, 8))
	movePC := pcPlus()
	b.Br(dispatch)

	// Dispatch phis.
	ir.AddIncoming(pc, zero, entry)
	ir.AddIncoming(pc, addPC, cAdd)
	ir.AddIncoming(pc, colPC, cColumn)
	ir.AddIncoming(pc, likePC, cLike)
	ir.AddIncoming(pc, zero, cNext)
	ir.AddIncoming(pc, rowPC, cRow)
	ir.AddIncoming(pc, serPC, cSerial)
	ir.AddIncoming(pc, movePC, cMove)

	ir.AddIncoming(row, f.Params[1], entry)
	ir.AddIncoming(row, row, cAdd)
	ir.AddIncoming(row, row, cColumn)
	ir.AddIncoming(row, row, cLike)
	ir.AddIncoming(row, rowNext, cNext)
	ir.AddIncoming(row, row, cRow)
	ir.AddIncoming(row, row, cSerial)
	ir.AddIncoming(row, row, cMove)

	ir.AddIncoming(nrows, zero, entry)
	for _, blk := range []*ir.Block{cAdd, cColumn, cLike, cRow, cSerial, cMove} {
		ir.AddIncoming(nrows, nrows, blk)
	}
	// The row-count increment lives in op.next; it is built after the
	// phis (which reference it) and relocated into its block.
	rowsOut := b.Add(nrows, one)
	moveToBlock(rowsOut, cNext)
	ir.AddIncoming(nrows, rowsOut, cNext)

	b.SetBlock(halt)
	b.Ret(nrows)
	return f
}

// moveToBlock relocates an instruction built in the wrong block into
// target, before its terminator.
func moveToBlock(in *ir.Instr, target *ir.Block) {
	src := in.Block()
	for i, x := range src.Instrs {
		if x == in {
			src.Instrs = append(src.Instrs[:i], src.Instrs[i+1:]...)
			break
		}
	}
	// Insert before the terminator.
	n := len(target.Instrs)
	target.Instrs = append(target.Instrs, nil)
	copy(target.Instrs[n:], target.Instrs[n-1:])
	target.Instrs[n-1] = in
	ir.SetInstrBlock(in, target)
}

// buildDriver: main → runQueries → sqlite3VdbeExec, giving the flame
// graphs their call-stack depth.
func buildDriver(mod *ir.Module, cfg SqliteConfig, vdbe *ir.Func) *ir.Func {
	run := mod.NewFunc("runQueries", ir.I64,
		ir.NewParam("prog", ir.Ptr), ir.NewParam("queries", ir.I64))
	run.SourceFile = "shell.c"
	run.SourceLine = 88
	b := ir.NewBuilder(run)
	entry := b.NewBlock("entry")
	loop := run.NewBlock("loop")
	exit := run.NewBlock("exit")
	b.SetBlock(entry)
	b.Br(loop)
	b.SetBlock(loop)
	q := b.Phi(ir.I64)
	total := b.Phi(ir.I64)
	rows := b.Call(vdbe, run.Params[0], ir.ConstInt(ir.I64, int64(cfg.Rows)))
	tot2 := b.Add(total, rows)
	qNext := b.Add(q, ir.ConstInt(ir.I64, 1))
	c := b.ICmp(ir.PredLT, qNext, run.Params[1])
	b.CondBr(c, loop, exit)
	ir.AddIncoming(q, ir.ConstInt(ir.I64, 0), entry)
	ir.AddIncoming(q, qNext, loop)
	ir.AddIncoming(total, ir.ConstInt(ir.I64, 0), entry)
	ir.AddIncoming(total, tot2, loop)
	b.SetBlock(exit)
	b.Ret(tot2)
	return run
}

// SeedSqlite writes the bytecode program, cell data, and LIKE
// pattern/text into the module's globals. The opcode stream is a
// deterministic pseudo-random mix that repeats per row: regular enough
// for a history-indexed indirect predictor (the x86 reference) to
// learn, hostile to a plain last-target BTB (the in-order RISC-V
// parts) — the microarchitectural root of Table 2's IPC gap.
func SeedSqlite(m *vm.Machine, cfg SqliteConfig) error {
	progAddr, err := m.GlobalAddr("bytecode")
	if err != nil {
		return err
	}
	// Opcode mix (per 16): add ×5, column ×3, like ×2, serial ×3,
	// move ×2, row ×1.
	mix := []byte{opAdd, opColumn, opAdd, opSerial, opMove, opAdd, opLike, opSerial,
		opAdd, opColumn, opRow, opSerial, opAdd, opMove, opColumn, opLike}
	rng := uint64(0x243F6A8885A308D3)
	for i := 0; i < cfg.ProgLen-1; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		op := mix[int(rng>>59)%len(mix)]
		if err := m.StoreByte(progAddr+uint64(i), op); err != nil {
			return err
		}
	}
	if err := m.StoreByte(progAddr+uint64(cfg.ProgLen-1), opNext); err != nil {
		return err
	}

	cellsAddr, err := m.GlobalAddr("cells")
	if err != nil {
		return err
	}
	for i := 0; i < cfg.CellArea; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		// Vary continuation bits so the varint loop takes 1-3 iterations.
		v := byte(rng >> 56)
		if i%3 == 2 {
			v &= 0x7F
		} else {
			v |= 0x80
		}
		if err := m.StoreByte(cellsAddr+uint64(i), v); err != nil {
			return err
		}
	}

	textAddr, err := m.GlobalAddr("liketext")
	if err != nil {
		return err
	}
	alphabet := []byte("abcdefgh")
	for i := 0; i < cfg.TextArea; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		if err := m.StoreByte(textAddr+uint64(i), alphabet[int(rng>>60)%len(alphabet)]); err != nil {
			return err
		}
	}
	patAddr, err := m.GlobalAddr("likepat")
	if err != nil {
		return err
	}
	// Pattern "a%b%c…" alternating literals and wildcards.
	for i := 0; i < cfg.PatLen; i++ {
		var ch byte
		if i%2 == 1 {
			ch = '%'
		} else {
			ch = alphabet[(i/2)%len(alphabet)]
		}
		if err := m.StoreByte(patAddr+uint64(i), ch); err != nil {
			return err
		}
	}
	return nil
}

// RunSqlite executes the query driver and returns the total row count.
func RunSqlite(m *vm.Machine, cfg SqliteConfig) (uint64, error) {
	progAddr, err := m.GlobalAddr("bytecode")
	if err != nil {
		return 0, err
	}
	return m.Run("runQueries", progAddr, uint64(cfg.Queries))
}
