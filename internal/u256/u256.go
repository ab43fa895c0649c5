// Package u256 implements 256-bit unsigned integer arithmetic for the AMM
// fixed-point math (Q64.96 sqrt prices, Q128.128 fee growth accumulators).
//
// Every arithmetic operation works directly on 4×uint64 limbs and does not
// allocate. Division, modulo and the full-width MulDiv family share one
// 512-by-256-bit long division (Knuth's Algorithm D on math/bits), so the
// swap path never touches math/big; property tests and a fuzz target pin
// every operation, overflow flags included, to the big.Int reference.
// math/big remains only for conversions: String, Hex, FromBig, ToBig.
package u256

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
)

// Int is a 256-bit unsigned integer. The zero value is 0 and ready to use.
// Limbs are little-endian: limb[0] is the least significant 64 bits.
//
// Int values are immutable by convention: all operations return new values.
type Int struct {
	limbs [4]uint64
}

// Common constants. Treat as read-only.
var (
	Zero = Int{}
	One  = FromUint64(1)
	Two  = FromUint64(2)

	// Max is 2^256 - 1.
	Max = Int{limbs: [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}}

	// Q96 is 2^96, the Uniswap V3 sqrt-price scaling factor.
	Q96 = Shl(One, 96)
	// Q128 is 2^128, the fee-growth scaling factor.
	Q128 = Shl(One, 128)

	two256 = new(big.Int).Lsh(big.NewInt(1), 256)
)

// FromUint64 returns v as an Int.
func FromUint64(v uint64) Int {
	return Int{limbs: [4]uint64{v, 0, 0, 0}}
}

// FromBig converts b to an Int, reducing modulo 2^256. It reports whether
// the conversion overflowed (or b was negative, which maps to the additive
// inverse mod 2^256).
func FromBig(b *big.Int) (Int, bool) {
	overflow := b.Sign() < 0 || b.BitLen() > 256
	r := new(big.Int).Mod(b, two256)
	var out Int
	words := r.Bits()
	for i, w := range words {
		if i >= 4 {
			break
		}
		out.limbs[i] = uint64(w)
	}
	return out, overflow
}

// MustFromBig converts b, panicking on overflow. For package-level constants
// and tests only.
func MustFromBig(b *big.Int) Int {
	v, overflow := FromBig(b)
	if overflow {
		panic(fmt.Sprintf("u256: value out of range: %s", b))
	}
	return v
}

// MustFromDecimal parses a base-10 string, panicking on failure. For
// package-level constants and tests only.
func MustFromDecimal(s string) Int {
	b, ok := new(big.Int).SetString(s, 10)
	if !ok {
		panic("u256: bad decimal: " + s)
	}
	return MustFromBig(b)
}

// ToBig returns x as a new big.Int.
func (x Int) ToBig() *big.Int {
	b := new(big.Int)
	words := make([]big.Word, 4)
	for i, l := range x.limbs {
		words[i] = big.Word(l)
	}
	return b.SetBits(words)
}

// Uint64 returns the low 64 bits of x and whether x fits in a uint64.
func (x Int) Uint64() (uint64, bool) {
	return x.limbs[0], x.limbs[1] == 0 && x.limbs[2] == 0 && x.limbs[3] == 0
}

// IsZero reports whether x == 0.
func (x Int) IsZero() bool {
	return x.limbs[0]|x.limbs[1]|x.limbs[2]|x.limbs[3] == 0
}

// Cmp compares x and y: -1 if x < y, 0 if x == y, +1 if x > y.
func (x Int) Cmp(y Int) int {
	for i := 3; i >= 0; i-- {
		switch {
		case x.limbs[i] < y.limbs[i]:
			return -1
		case x.limbs[i] > y.limbs[i]:
			return 1
		}
	}
	return 0
}

// Lt reports x < y.
func (x Int) Lt(y Int) bool { return x.Cmp(y) < 0 }

// Gt reports x > y.
func (x Int) Gt(y Int) bool { return x.Cmp(y) > 0 }

// Eq reports x == y.
func (x Int) Eq(y Int) bool { return x == y }

// BitLen returns the number of bits required to represent x.
func (x Int) BitLen() int {
	for i := 3; i >= 0; i-- {
		if x.limbs[i] != 0 {
			return i*64 + bits.Len64(x.limbs[i])
		}
	}
	return 0
}

// String renders x in base 10.
func (x Int) String() string { return x.ToBig().String() }

// Bytes32 returns the big-endian 32-byte encoding of x.
func (x Int) Bytes32() [32]byte {
	var out [32]byte
	binary.BigEndian.PutUint64(out[0:], x.limbs[3])
	binary.BigEndian.PutUint64(out[8:], x.limbs[2])
	binary.BigEndian.PutUint64(out[16:], x.limbs[1])
	binary.BigEndian.PutUint64(out[24:], x.limbs[0])
	return out
}

// FromBytes32 decodes a big-endian 32-byte value.
func FromBytes32(b [32]byte) Int {
	return Int{limbs: [4]uint64{
		binary.BigEndian.Uint64(b[24:]),
		binary.BigEndian.Uint64(b[16:]),
		binary.BigEndian.Uint64(b[8:]),
		binary.BigEndian.Uint64(b[0:]),
	}}
}

// Add returns x + y mod 2^256 and the carry-out.
func AddOverflow(x, y Int) (Int, bool) {
	var out Int
	var carry uint64
	for i := 0; i < 4; i++ {
		out.limbs[i], carry = bits.Add64(x.limbs[i], y.limbs[i], carry)
	}
	return out, carry != 0
}

// Add returns x + y mod 2^256.
func Add(x, y Int) Int {
	out, _ := AddOverflow(x, y)
	return out
}

// SubUnderflow returns x - y mod 2^256 and whether the subtraction borrowed.
func SubUnderflow(x, y Int) (Int, bool) {
	var out Int
	var borrow uint64
	for i := 0; i < 4; i++ {
		out.limbs[i], borrow = bits.Sub64(x.limbs[i], y.limbs[i], borrow)
	}
	return out, borrow != 0
}

// Sub returns x - y mod 2^256.
func Sub(x, y Int) Int {
	out, _ := SubUnderflow(x, y)
	return out
}

// Mul returns x * y mod 2^256.
func Mul(x, y Int) Int {
	return low(mulFull(x, y))
}

// MulOverflow returns x * y mod 2^256 and whether the product exceeded 256
// bits.
func MulOverflow(x, y Int) (Int, bool) {
	p := mulFull(x, y)
	return low(p), overflows(p)
}

// mulFull computes the 512-bit product of x and y, little-endian.
func mulFull(x, y Int) [8]uint64 {
	var prod [8]uint64
	for i := 0; i < 4; i++ {
		var carry uint64
		for j := 0; j < 4; j++ {
			h, l := bits.Mul64(x.limbs[i], y.limbs[j])
			var c uint64
			l, c = bits.Add64(l, carry, 0)
			h += c // h <= 2^64-2 after Mul64, so no overflow
			l, c = bits.Add64(l, prod[i+j], 0)
			h += c // total fits in 128 bits, so no overflow
			prod[i+j] = l
			carry = h
		}
		prod[i+4] = carry
	}
	return prod
}

// widen zero-extends x to 512 bits.
func widen(x Int) [8]uint64 {
	return [8]uint64{x.limbs[0], x.limbs[1], x.limbs[2], x.limbs[3]}
}

// low returns the low 256 bits of a 512-bit value.
func low(v [8]uint64) Int {
	return Int{limbs: [4]uint64{v[0], v[1], v[2], v[3]}}
}

// overflows reports whether a 512-bit value needs more than 256 bits.
func overflows(v [8]uint64) bool {
	return v[4]|v[5]|v[6]|v[7] != 0
}

// increment returns v + 1 for a 512-bit v < 2^512 - 1.
func increment(v [8]uint64) [8]uint64 {
	for i := range v {
		v[i]++
		if v[i] != 0 {
			break
		}
	}
	return v
}

// Shl returns x << n mod 2^256.
func Shl(x Int, n uint) Int {
	if n >= 256 {
		return Zero
	}
	limbShift := int(n / 64)
	bitShift := n % 64
	var out Int
	for i := 3; i >= 0; i-- {
		src := i - limbShift
		if src < 0 {
			continue
		}
		out.limbs[i] = x.limbs[src] << bitShift
		if bitShift > 0 && src > 0 {
			out.limbs[i] |= x.limbs[src-1] >> (64 - bitShift)
		}
	}
	return out
}

// Shr returns x >> n.
func Shr(x Int, n uint) Int {
	if n >= 256 {
		return Zero
	}
	limbShift := int(n / 64)
	bitShift := n % 64
	var out Int
	for i := 0; i < 4; i++ {
		src := i + limbShift
		if src > 3 {
			continue
		}
		out.limbs[i] = x.limbs[src] >> bitShift
		if bitShift > 0 && src < 3 {
			out.limbs[i] |= x.limbs[src+1] << (64 - bitShift)
		}
	}
	return out
}

// divmod returns u / d and u % d for a 512-bit dividend u and a non-zero
// divisor d. It is Knuth's Algorithm D (TAOCP vol. 2, §4.3.1) in base 2^64
// on fixed arrays, so it never allocates.
func divmod(u [8]uint64, d Int) (q [8]uint64, r Int) {
	n := 4 // significant limbs of d
	for d.limbs[n-1] == 0 {
		n--
	}
	m := 8 // significant limbs of u
	for m > 0 && u[m-1] == 0 {
		m--
	}
	if m < n {
		return q, low(u) // u < d
	}
	if n == 1 {
		var rem uint64
		for i := m - 1; i >= 0; i-- {
			q[i], rem = bits.Div64(rem, u[i], d.limbs[0])
		}
		return q, FromUint64(rem)
	}

	// D1: shift so the divisor's top limb has its high bit set; the
	// quotient is unchanged and every q̂ estimate is off by at most two.
	// A shift by 64 yields 0 in Go, so s == 0 needs no special case.
	s := uint(bits.LeadingZeros64(d.limbs[n-1]))
	var dn [4]uint64
	for i := n - 1; i > 0; i-- {
		dn[i] = d.limbs[i]<<s | d.limbs[i-1]>>(64-s)
	}
	dn[0] = d.limbs[0] << s
	var un [9]uint64
	un[m] = u[m-1] >> (64 - s)
	for i := m - 1; i > 0; i-- {
		un[i] = u[i]<<s | u[i-1]>>(64-s)
	}
	un[0] = u[0] << s

	top, next := dn[n-1], dn[n-2]
	for j := m - n; j >= 0; j-- {
		// D3: estimate q̂ from the top two dividend limbs and refine it
		// with the next divisor limb.
		var qhat, rhat uint64
		refine := true
		if un[j+n] >= top { // only == is possible: q̂ caps at 2^64-1
			qhat = ^uint64(0)
			var c uint64
			rhat, c = bits.Add64(un[j+n-1], top, 0)
			refine = c == 0
		} else {
			qhat, rhat = bits.Div64(un[j+n], un[j+n-1], top)
		}
		for refine {
			ph, pl := bits.Mul64(qhat, next)
			if ph < rhat || (ph == rhat && pl <= un[j+n-2]) {
				break
			}
			qhat--
			var c uint64
			rhat, c = bits.Add64(rhat, top, 0)
			refine = c == 0
		}

		// D4: subtract q̂·dn from the current window.
		var carry, borrow uint64
		for i := 0; i < n; i++ {
			ph, pl := bits.Mul64(qhat, dn[i])
			var c uint64
			pl, c = bits.Add64(pl, carry, 0)
			carry = ph + c
			un[j+i], borrow = bits.Sub64(un[j+i], pl, borrow)
		}
		un[j+n], borrow = bits.Sub64(un[j+n], carry, borrow)

		// D6: q̂ was one too large (probability ~2/2^64); add dn back.
		if borrow != 0 {
			qhat--
			var c uint64
			for i := 0; i < n; i++ {
				un[j+i], c = bits.Add64(un[j+i], dn[i], c)
			}
			un[j+n] += c
		}
		q[j] = qhat
	}

	// D8: the remainder is the low n limbs, shifted back.
	for i := 0; i < n; i++ {
		r.limbs[i] = un[i]>>s | un[i+1]<<(64-s)
	}
	return q, r
}

// Div returns x / y (truncated). Division by zero returns 0, matching EVM
// semantics.
func Div(x, y Int) Int {
	if y.IsZero() {
		return Zero
	}
	q, _ := divmod(widen(x), y)
	return low(q)
}

// Mod returns x % y. Modulo by zero returns 0, matching EVM semantics.
func Mod(x, y Int) Int {
	if y.IsZero() {
		return Zero
	}
	_, r := divmod(widen(x), y)
	return r
}

// MulDiv returns floor(x*y/d) computed with a 512-bit intermediate product,
// and whether the result overflowed 256 bits (the value is then the low 256
// bits of the quotient). Division by zero overflows.
func MulDiv(x, y, d Int) (Int, bool) {
	if d.IsZero() {
		return Zero, true
	}
	q, _ := divmod(mulFull(x, y), d)
	return low(q), overflows(q)
}

// MulDivRoundingUp returns ceil(x*y/d) with a 512-bit intermediate, and
// whether the result overflowed 256 bits.
func MulDivRoundingUp(x, y, d Int) (Int, bool) {
	if d.IsZero() {
		return Zero, true
	}
	q, r := divmod(mulFull(x, y), d)
	if !r.IsZero() {
		q = increment(q)
	}
	return low(q), overflows(q)
}

// DivRoundingUp returns ceil(x/d). Division by zero returns 0.
func DivRoundingUp(x, d Int) Int {
	if d.IsZero() {
		return Zero
	}
	q, r := divmod(widen(x), d)
	if !r.IsZero() {
		q = increment(q)
	}
	return low(q)
}

// Min returns the smaller of x and y.
func Min(x, y Int) Int {
	if x.Cmp(y) <= 0 {
		return x
	}
	return y
}
