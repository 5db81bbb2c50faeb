// Package ir implements the typed SSA intermediate representation the
// compiler-driven Roofline analysis operates on. It is a deliberately
// small LLVM-like IR: modules of functions, functions of basic blocks,
// blocks of instructions in SSA form, plus a textual format with a
// parser and printer and a structural verifier.
//
// The IR keeps exactly the properties the paper's instrumentation pass
// needs (§4.1): explicit loads and stores with known access widths,
// explicitly typed integer and floating-point arithmetic, an explicit
// control-flow graph for loop and region analysis, and target
// independence.
package ir

import "fmt"

// Kind enumerates the scalar type kinds.
type Kind uint8

// Scalar type kinds.
const (
	KVoid Kind = iota
	KI1
	KI8
	KI16
	KI32
	KI64
	KF32
	KF64
	KPtr
)

var kindNames = [...]string{
	KVoid: "void",
	KI1:   "i1",
	KI8:   "i8",
	KI16:  "i16",
	KI32:  "i32",
	KI64:  "i64",
	KF32:  "f32",
	KF64:  "f64",
	KPtr:  "ptr",
}

// Type is a scalar or fixed-width vector type. Types are small values
// and compare with ==.
type Type struct {
	Kind  Kind
	Lanes int // 0 for scalar; >0 for a vector of Kind
}

// Convenience scalar types.
var (
	Void = Type{Kind: KVoid}
	I1   = Type{Kind: KI1}
	I8   = Type{Kind: KI8}
	I16  = Type{Kind: KI16}
	I32  = Type{Kind: KI32}
	I64  = Type{Kind: KI64}
	F32  = Type{Kind: KF32}
	F64  = Type{Kind: KF64}
	Ptr  = Type{Kind: KPtr}
)

// VecOf returns the vector type with the given scalar element kind and
// lane count. It panics on non-positive lanes or non-numeric elements,
// which are programming errors in pass code.
func VecOf(elem Type, lanes int) Type {
	if lanes <= 0 {
		panic("ir: vector lanes must be positive")
	}
	if elem.Lanes != 0 {
		panic("ir: vectors of vectors are not supported")
	}
	switch elem.Kind {
	case KI8, KI16, KI32, KI64, KF32, KF64:
	default:
		panic(fmt.Sprintf("ir: cannot build vector of %s", elem))
	}
	return Type{Kind: elem.Kind, Lanes: lanes}
}

// IsVector reports whether t is a vector type.
func (t Type) IsVector() bool { return t.Lanes > 0 }

// Elem returns the scalar element type of a vector (or t itself for
// scalars).
func (t Type) Elem() Type { return Type{Kind: t.Kind} }

// IsInteger reports whether the element kind is an integer (including i1).
func (t Type) IsInteger() bool {
	switch t.Kind {
	case KI1, KI8, KI16, KI32, KI64:
		return true
	}
	return false
}

// IsFloat reports whether the element kind is floating point.
func (t Type) IsFloat() bool { return t.Kind == KF32 || t.Kind == KF64 }

// IsPtr reports whether t is the pointer type.
func (t Type) IsPtr() bool { return t.Kind == KPtr && t.Lanes == 0 }

// Size returns the in-memory size in bytes.
func (t Type) Size() int {
	var s int
	switch t.Kind {
	case KVoid:
		return 0
	case KI1, KI8:
		s = 1
	case KI16:
		s = 2
	case KI32, KF32:
		s = 4
	case KI64, KF64, KPtr:
		s = 8
	}
	if t.Lanes > 0 {
		return s * t.Lanes
	}
	return s
}

// String renders the type in the textual IR syntax (e.g. "f32", "f32x8").
func (t Type) String() string {
	base := "?"
	if int(t.Kind) < len(kindNames) {
		base = kindNames[t.Kind]
	}
	if t.Lanes > 0 {
		return fmt.Sprintf("%sx%d", base, t.Lanes)
	}
	return base
}

// TypeByName parses a type name as produced by String.
func TypeByName(s string) (Type, bool) {
	for k, n := range kindNames {
		if n == s {
			return Type{Kind: Kind(k)}, true
		}
		// Vector form: "<elem>x<lanes>".
		if len(s) > len(n)+1 && s[:len(n)] == n && s[len(n)] == 'x' {
			lanes := 0
			for _, c := range s[len(n)+1:] {
				if c < '0' || c > '9' {
					lanes = -1
					break
				}
				lanes = lanes*10 + int(c-'0')
			}
			if lanes > 0 && Kind(k) != KVoid && Kind(k) != KPtr && Kind(k) != KI1 {
				return Type{Kind: Kind(k), Lanes: lanes}, true
			}
		}
	}
	return Type{}, false
}
