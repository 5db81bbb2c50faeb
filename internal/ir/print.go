package ir

import (
	"fmt"
	"sort"
	"strings"
)

// Print renders the module in the textual IR format accepted by Parse.
// The text carries the whole module, loop metadata registry included,
// so Parse(Print(m)) prints identically: it is also the serialized form
// of the module inside program artifacts.
func Print(m *Module) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %q\n", m.MName)
	for _, g := range m.Globals {
		fmt.Fprintf(&sb, "\nglobal @%s %s[%d]", g.GName, g.Elem, g.Count)
	}
	if len(m.Globals) > 0 {
		sb.WriteByte('\n')
	}
	for _, f := range m.Funcs {
		sb.WriteByte('\n')
		printFunc(&sb, f)
	}
	// Loop metadata, one line per registered loop in ID order:
	// loop <id> <func> <header> <file> <line>.
	if len(m.Loops) > 0 {
		sb.WriteByte('\n')
	}
	for _, lm := range m.Loops {
		fmt.Fprintf(&sb, "loop %d %q %q %q %d\n", lm.ID, lm.FuncName, lm.Header, lm.File, lm.Line)
	}
	return sb.String()
}

// PrintFunc renders a single function.
func PrintFunc(f *Func) string {
	var sb strings.Builder
	printFunc(&sb, f)
	return sb.String()
}

func printFunc(sb *strings.Builder, f *Func) {
	ensureNames(f)
	fmt.Fprintf(sb, "func @%s(", f.FName)
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(sb, "%%%s: %s", p.PName, p.Ty)
	}
	fmt.Fprintf(sb, ") -> %s", f.RetTy)
	if f.SourceFile != "" {
		fmt.Fprintf(sb, " !file %q !line %d", f.SourceFile, f.SourceLine)
	}
	if len(f.Hints) > 0 {
		keys := make([]string, 0, len(f.Hints))
		for k := range f.Hints {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(sb, " !hint %q %d", k, f.Hints[k])
		}
	}
	sb.WriteString(" {\n")
	for _, b := range f.Blocks {
		fmt.Fprintf(sb, "%s:\n", b.BName)
		for _, in := range b.Instrs {
			sb.WriteString("  ")
			sb.WriteString(formatInstr(in))
			sb.WriteByte('\n')
		}
	}
	sb.WriteString("}\n")
}

// ensureNames assigns SSA names to any unnamed value-producing
// instructions (possible when IR is built without the Builder).
func ensureNames(f *Func) {
	seen := map[string]bool{}
	for _, p := range f.Params {
		seen[p.PName] = true
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Ty != Void && in.name != "" {
				seen[in.name] = true
			}
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Ty != Void && in.name == "" {
				for {
					n := f.uniqueValueName("t")
					if !seen[n] {
						in.name = n
						seen[n] = true
						break
					}
				}
			}
		}
	}
}

// operand renders a value reference in operand position.
func operand(v Value) string {
	switch x := v.(type) {
	case *Const:
		return x.String()
	default:
		return v.String()
	}
}

// formatInstr renders one instruction in textual syntax.
func formatInstr(in *Instr) string {
	var sb strings.Builder
	if in.Ty != Void {
		fmt.Fprintf(&sb, "%%%s = ", in.name)
	}
	switch {
	case in.Op.IsBinary():
		fmt.Fprintf(&sb, "%s %s %s, %s", in.Op, in.Ty, operand(in.Args[0]), operand(in.Args[1]))
	case in.Op == OpICmp || in.Op == OpFCmp:
		fmt.Fprintf(&sb, "%s %s %s %s, %s", in.Op, in.Pred, in.Args[0].Type(),
			operand(in.Args[0]), operand(in.Args[1]))
	case in.Op == OpFMA:
		fmt.Fprintf(&sb, "fma %s %s, %s, %s", in.Ty,
			operand(in.Args[0]), operand(in.Args[1]), operand(in.Args[2]))
	case in.Op.IsConversion():
		fmt.Fprintf(&sb, "%s %s %s to %s", in.Op, in.Args[0].Type(), operand(in.Args[0]), in.Ty)
	case in.Op == OpSplat:
		fmt.Fprintf(&sb, "splat %s %s", in.Ty, operand(in.Args[0]))
	case in.Op == OpExtract:
		fmt.Fprintf(&sb, "extract %s %s, %d", in.Ty, operand(in.Args[0]), in.Lane)
	case in.Op == OpReduce:
		fmt.Fprintf(&sb, "reduce %s %s", in.Ty, operand(in.Args[0]))
	case in.Op == OpAlloca:
		fmt.Fprintf(&sb, "alloca %d, %s", in.Scale, operand(in.Args[0]))
	case in.Op == OpLoad:
		fmt.Fprintf(&sb, "load %s %s", in.Ty, operand(in.Args[0]))
		if in.Scale != 0 {
			fmt.Fprintf(&sb, ", %d", in.Scale)
		}
	case in.Op == OpStore:
		fmt.Fprintf(&sb, "store %s %s, %s", in.Args[0].Type(), operand(in.Args[0]), operand(in.Args[1]))
		if in.Scale != 0 {
			fmt.Fprintf(&sb, ", %d", in.Scale)
		}
	case in.Op == OpGEP:
		fmt.Fprintf(&sb, "gep %s, %s %s, %d", operand(in.Args[0]),
			in.Args[1].Type(), operand(in.Args[1]), in.Scale)
	case in.Op == OpPhi:
		fmt.Fprintf(&sb, "phi %s ", in.Ty)
		for i := range in.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "[%s, %s]", operand(in.Args[i]), in.Blocks[i].BName)
		}
	case in.Op == OpSelect:
		fmt.Fprintf(&sb, "select %s, %s %s, %s", operand(in.Args[0]),
			in.Ty, operand(in.Args[1]), operand(in.Args[2]))
	case in.Op == OpCall:
		sb.WriteString("call ")
		if in.Ty != Void {
			fmt.Fprintf(&sb, "%s ", in.Ty)
		}
		fmt.Fprintf(&sb, "@%s(", in.Callee.FName)
		for i, a := range in.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%s %s", a.Type(), operand(a))
		}
		sb.WriteString(")")
	case in.Op == OpRet:
		if len(in.Args) == 0 {
			sb.WriteString("ret")
		} else {
			fmt.Fprintf(&sb, "ret %s %s", in.Args[0].Type(), operand(in.Args[0]))
		}
	case in.Op == OpBr:
		fmt.Fprintf(&sb, "br %s", in.Blocks[0].BName)
	case in.Op == OpCondBr:
		fmt.Fprintf(&sb, "condbr %s, %s, %s", operand(in.Args[0]),
			in.Blocks[0].BName, in.Blocks[1].BName)
	case in.Op == OpSwitch:
		fmt.Fprintf(&sb, "switch %s %s, %s [", in.Args[0].Type(), operand(in.Args[0]), in.Blocks[0].BName)
		for i, c := range in.Cases {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%d: %s", c, in.Blocks[i+1].BName)
		}
		sb.WriteString("]")
	default:
		fmt.Fprintf(&sb, "%s <unprintable>", in.Op)
	}
	return sb.String()
}
