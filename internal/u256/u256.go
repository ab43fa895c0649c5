// Package u256 implements 256-bit unsigned integer arithmetic for the AMM
// fixed-point math (Q64.96 sqrt prices, Q128.128 fee growth accumulators).
//
// Every arithmetic operation works directly on four uint64 limbs, held in
// fields the compiler keeps in registers, and does not allocate. Division,
// modulo and the full-width MulDiv family do work in proportion to the
// operands' significant limbs: the product multiplies only non-zero limbs,
// and the division is a shift for a power-of-two divisor, one Div64 per
// limb for a one-limb divisor, a register-resident 3-by-2 step per limb for
// a two-limb divisor, and Knuth's Algorithm D only for longer ones. So the
// swap path never touches math/big; property tests and a fuzz target pin
// every operation, overflow flags included, to the big.Int reference.
// math/big remains only for conversions: String, FromBig, ToBig.
package u256

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
)

// Int is a 256-bit unsigned integer. The zero value is 0 and ready to use.
// Its limbs are little-endian: l0 is the least significant 64 bits. They
// are four fields, not an array, so the compiler can keep an Int in
// registers and pass it in them; code that loops over limbs uses putWords.
//
// Int values are immutable by convention: all operations return new values.
type Int struct {
	l0, l1, l2, l3 uint64
}

// Common constants. Treat as read-only.
var (
	Zero = Int{}
	One  = FromUint64(1)
	Two  = FromUint64(2)

	// Max is 2^256 - 1.
	Max = Int{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}

	// Q96 is 2^96, the Uniswap V3 sqrt-price scaling factor.
	Q96 = Shl(One, 96)
	// Q128 is 2^128, the fee-growth scaling factor.
	Q128 = Shl(One, 128)

	two256 = new(big.Int).Lsh(big.NewInt(1), 256)
)

// FromUint64 returns v as an Int.
func FromUint64(v uint64) Int {
	return Int{l0: v}
}

// FromBig converts b to an Int, reducing modulo 2^256. It reports whether
// the conversion overflowed (or b was negative, which maps to the additive
// inverse mod 2^256).
func FromBig(b *big.Int) (Int, bool) {
	overflow := b.Sign() < 0 || b.BitLen() > 256
	r := new(big.Int).Mod(b, two256)
	var w [4]uint64
	for i, word := range r.Bits() {
		if i >= 4 {
			break
		}
		w[i] = uint64(word)
	}
	return Int{w[0], w[1], w[2], w[3]}, overflow
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
	var w [4]uint64
	x.putWords(&w)
	words := make([]big.Word, 4)
	for i, l := range w {
		words[i] = big.Word(l)
	}
	return b.SetBits(words)
}

// Uint64 returns the low 64 bits of x and whether x fits in a uint64.
func (x Int) Uint64() (uint64, bool) {
	return x.l0, x.l1|x.l2|x.l3 == 0
}

// IsZero reports whether x == 0.
func (x Int) IsZero() bool {
	return x.l0|x.l1|x.l2|x.l3 == 0
}

// putWords stores x's limbs in w, least significant first, one limb at a
// time: an array value is built in a temporary and copied whole, and a wide
// load of narrow stores stalls the CPU.
func (x Int) putWords(w *[4]uint64) {
	w[0], w[1], w[2], w[3] = x.l0, x.l1, x.l2, x.l3
}

// Cmp compares x and y: -1 if x < y, 0 if x == y, +1 if x > y.
func (x Int) Cmp(y Int) int {
	switch {
	case x == y:
		return 0
	case x.Lt(y):
		return -1
	}
	return 1
}

// Lt reports x < y: whether x - y borrows.
func (x Int) Lt(y Int) bool {
	_, borrow := SubUnderflow(x, y)
	return borrow
}

// Gt reports x > y.
func (x Int) Gt(y Int) bool { return y.Lt(x) }

// Eq reports x == y.
func (x Int) Eq(y Int) bool { return x == y }

// BitLen returns the number of bits required to represent x.
func (x Int) BitLen() int {
	n := x.nlimbs()
	if n == 0 {
		return 0
	}
	var w [4]uint64
	x.putWords(&w)
	return (n-1)*64 + bits.Len64(w[n-1])
}

// String renders x in base 10.
func (x Int) String() string { return x.ToBig().String() }

// Bytes32 returns the big-endian 32-byte encoding of x.
func (x Int) Bytes32() [32]byte {
	var out [32]byte
	binary.BigEndian.PutUint64(out[0:], x.l3)
	binary.BigEndian.PutUint64(out[8:], x.l2)
	binary.BigEndian.PutUint64(out[16:], x.l1)
	binary.BigEndian.PutUint64(out[24:], x.l0)
	return out
}

// FromBytes32 decodes a big-endian 32-byte value.
func FromBytes32(b [32]byte) Int {
	return Int{
		binary.BigEndian.Uint64(b[24:]),
		binary.BigEndian.Uint64(b[16:]),
		binary.BigEndian.Uint64(b[8:]),
		binary.BigEndian.Uint64(b[0:]),
	}
}

// Add returns x + y mod 2^256 and the carry-out.
func AddOverflow(x, y Int) (Int, bool) {
	var out Int
	var carry uint64
	out.l0, carry = bits.Add64(x.l0, y.l0, 0)
	out.l1, carry = bits.Add64(x.l1, y.l1, carry)
	out.l2, carry = bits.Add64(x.l2, y.l2, carry)
	out.l3, carry = bits.Add64(x.l3, y.l3, carry)
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
	out.l0, borrow = bits.Sub64(x.l0, y.l0, 0)
	out.l1, borrow = bits.Sub64(x.l1, y.l1, borrow)
	out.l2, borrow = bits.Sub64(x.l2, y.l2, borrow)
	out.l3, borrow = bits.Sub64(x.l3, y.l3, borrow)
	return out, borrow != 0
}

// Sub returns x - y mod 2^256.
func Sub(x, y Int) Int {
	out, _ := SubUnderflow(x, y)
	return out
}

// Mul returns x * y mod 2^256.
func Mul(x, y Int) Int {
	p, _ := MulOverflow(x, y)
	return p
}

// MulOverflow returns x * y mod 2^256 and whether the product exceeded 256
// bits.
func MulOverflow(x, y Int) (Int, bool) {
	var p [8]uint64
	mulInto(&p, x, y)
	return low(&p), p[4]|p[5]|p[6]|p[7] != 0
}

// nlimbs returns the number of significant limbs of x: 0 for x == 0.
func (x Int) nlimbs() int {
	switch {
	case x.l3 != 0:
		return 4
	case x.l2 != 0:
		return 3
	case x.l1 != 0:
		return 2
	case x.l0 != 0:
		return 1
	}
	return 0
}

// mulInto writes the 512-bit product x*y to p, which must be zero, and
// returns the product's significant limb count. Only the non-zero limbs of
// x and the significant limbs of y are multiplied.
func mulInto(p *[8]uint64, x, y Int) int {
	nx, ny := x.nlimbs(), y.nlimbs()
	if nx == 0 || ny == 0 {
		return 0
	}
	var xs, ys [4]uint64
	x.putWords(&xs)
	y.putWords(&ys)
	for i, xi := range xs[:nx] {
		if xi == 0 {
			continue // p[i+ny] is still zero
		}
		var carry uint64
		for j, yj := range ys[:ny] {
			h, l := bits.Mul64(xi, yj)
			var c uint64
			l, c = bits.Add64(l, carry, 0)
			h += c // h <= 2^64-2 after Mul64, so no overflow
			l, c = bits.Add64(l, p[i+j], 0)
			h += c // total fits in 128 bits, so no overflow
			p[i+j] = l
			carry = h
		}
		p[i+ny] = carry
	}
	if p[nx+ny-1] == 0 {
		return nx + ny - 1
	}
	return nx + ny
}

// low returns the low 256 bits of a 512-bit value.
func low(v *[8]uint64) Int {
	return Int{v[0], v[1], v[2], v[3]}
}

// Shl returns x << n mod 2^256.
func Shl(x Int, n uint) Int {
	if n >= 256 {
		return Zero
	}
	limbShift := int(n / 64)
	bitShift := n % 64
	var w, out [4]uint64
	x.putWords(&w)
	for i := 3; i >= limbShift; i-- {
		src := i - limbShift
		out[i] = w[src] << bitShift
		if bitShift > 0 && src > 0 {
			out[i] |= w[src-1] >> (64 - bitShift)
		}
	}
	return Int{out[0], out[1], out[2], out[3]}
}

// Shr returns x >> n.
func Shr(x Int, n uint) Int {
	if n >= 256 {
		return Zero
	}
	limbShift := int(n / 64)
	bitShift := n % 64
	var w, out [4]uint64
	x.putWords(&w)
	for i := 0; i+limbShift < 4; i++ {
		src := i + limbShift
		out[i] = w[src] >> bitShift
		if bitShift > 0 && src < 3 {
			out[i] |= w[src+1] << (64 - bitShift)
		}
	}
	return Int{out[0], out[1], out[2], out[3]}
}

// quoRem divides the m-limb value u by a non-zero d: it writes the quotient
// to q, which must be zero, and reports whether a remainder is left, all
// that rounding needs (Mod multiplies back). The work follows the
// operands' significant limbs: a power-of-two divisor is a shift, a
// one-limb divisor one Div64 per limb, a two-limb divisor one 3-by-2 step
// per limb, and a longer one Knuth's Algorithm D.
func quoRem(q, u *[8]uint64, m int, d Int) bool {
	n := d.nlimbs()
	if m < n {
		return m > 0 // 0 < u < d
	}
	var dw [4]uint64
	d.putWords(&dw)
	if k, ok := log2(&dw, n); ok {
		return shrInto(q, u, m, k)
	}
	switch n {
	case 1:
		return div1(q, u, m, d.l0)
	case 2:
		return div2(q, u, m, d.l1, d.l0)
	}
	return divLong(q, u, m, &dw, n)
}

// log2 returns k and true when d == 2^k; n is d's significant limb count.
func log2(d *[4]uint64, n int) (uint, bool) {
	top := d[n-1]
	if top&(top-1) != 0 {
		return 0, false
	}
	for _, l := range d[:n-1] {
		if l != 0 {
			return 0, false
		}
	}
	return uint(n-1)*64 + uint(bits.TrailingZeros64(top)), true
}

// shrInto writes u >> k to q, for k < 256, and reports whether any bit
// shifted out is set.
func shrInto(q, u *[8]uint64, m int, k uint) bool {
	ls, bs := int(k/64), k%64
	out := u[ls] & (1<<bs - 1)
	for _, l := range u[:ls] {
		out |= l
	}
	for i := 0; i+ls < m; i++ {
		q[i] = u[i+ls] >> bs
		if i+ls+1 < m {
			q[i] |= u[i+ls+1] << (64 - bs) // a shift by 64 yields 0
		}
	}
	return out != 0
}

// div1 divides the m-limb u by the one-limb d. A top limb below d only
// seeds the remainder, so a two-limb product with a one-limb quotient costs
// a single Div64.
func div1(q, u *[8]uint64, m int, d uint64) bool {
	var r uint64
	i := m - 1
	if u[i] < d {
		r = u[i]
		i--
	}
	for ; i >= 0; i-- {
		q[i], r = bits.Div64(r, u[i], d)
	}
	return r != 0
}

// div2 divides the m-limb u (m >= 2) by the two-limb divisor (d1, d0), one
// 3-by-2 step per quotient limb with the running remainder in two
// registers. With the divisor normalised, q̂ from the top limb is at most
// two too large, and Knuth's step D3 test against the low limb corrects it
// exactly when the divisor has two limbs, so no step needs an add-back.
func div2(q, u *[8]uint64, m int, d1, d0 uint64) bool {
	// A shift by 64 yields 0 in Go, so s == 0 needs no special case.
	s := uint(bits.LeadingZeros64(d1))
	d1, d0 = d1<<s|d0>>(64-s), d0<<s
	// The remainder starts as the normalised dividend's top two limbs,
	// below the divisor because the divisor's top bit is set.
	rh := u[m-1] >> (64 - s)
	rl := u[m-1]<<s | u[m-2]>>(64-s)
	for j := m - 2; j >= 0; j-- {
		next := u[j] << s
		if j > 0 {
			next |= u[j-1] >> (64 - s)
		}
		var qhat, rhat, carry uint64
		if rh >= d1 { // only == is possible: q̂ caps at 2^64-1
			qhat = ^uint64(0)
			rhat, carry = bits.Add64(rl, d1, 0)
		} else {
			qhat, rhat = bits.Div64(rh, rl, d1)
		}
		// q̂ is too large while q̂·d0 exceeds (r̂, next); once r̂ carries
		// past 2^64 it cannot.
		ph, pl := bits.Mul64(qhat, d0)
		for carry == 0 && (ph > rhat || ph == rhat && pl > next) {
			qhat--
			var b uint64
			pl, b = bits.Sub64(pl, d0, 0)
			ph -= b
			rhat, carry = bits.Add64(rhat, d1, 0)
		}
		// The new remainder is below the divisor, so it is exact mod 2^128.
		var b uint64
		rl, b = bits.Sub64(next, pl, 0)
		rh, _ = bits.Sub64(rhat, ph, b)
		q[j] = qhat
	}
	return rh|rl != 0
}

// divLong is Knuth's Algorithm D (TAOCP vol. 2, §4.3.1) in base 2^64 for a
// divisor of n >= 3 limbs, on fixed arrays so it never allocates.
func divLong(q, u *[8]uint64, m int, d *[4]uint64, n int) bool {
	// D1: shift so the divisor's top limb has its high bit set; the
	// quotient is unchanged and every q̂ estimate is off by at most two.
	// A shift by 64 yields 0 in Go, so s == 0 needs no special case.
	s := uint(bits.LeadingZeros64(d[n-1]))
	var dn [4]uint64
	for i := n - 1; i > 0; i-- {
		dn[i] = d[i]<<s | d[i-1]>>(64-s)
	}
	dn[0] = d[0] << s
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

	// D8: the remainder is the low n limbs, still shifted.
	var r uint64
	for _, l := range un[:n] {
		r |= l
	}
	return r != 0
}

// Div returns x / y (truncated). Division by zero returns 0, matching EVM
// semantics.
func Div(x, y Int) Int {
	q, _ := div(x, y)
	return q
}

// Mod returns x % y. Modulo by zero returns 0, matching EVM semantics.
func Mod(x, y Int) Int {
	if y.IsZero() {
		return Zero
	}
	return Sub(x, Mul(Div(x, y), y))
}

// div returns x / d, 0 for d == 0, and whether a remainder was left.
func div(x, d Int) (Int, bool) {
	if d.IsZero() {
		return Zero, false
	}
	u := [8]uint64{x.l0, x.l1, x.l2, x.l3}
	var q [8]uint64
	inexact := quoRem(&q, &u, x.nlimbs(), d)
	return low(&q), inexact
}

// MulDiv returns floor(x*y/d) computed with a 512-bit intermediate product,
// and whether the result overflowed 256 bits (the value is then the low 256
// bits of the quotient). Division by zero overflows.
func MulDiv(x, y, d Int) (Int, bool) {
	if d.IsZero() {
		return Zero, true
	}
	var p, q [8]uint64
	quoRem(&q, &p, mulInto(&p, x, y), d)
	return low(&q), q[4]|q[5]|q[6]|q[7] != 0
}

// MulDivRoundingUp returns ceil(x*y/d) with a 512-bit intermediate, and
// whether the result overflowed 256 bits.
func MulDivRoundingUp(x, y, d Int) (Int, bool) {
	if d.IsZero() {
		return Zero, true
	}
	var p, q [8]uint64
	if quoRem(&q, &p, mulInto(&p, x, y), d) {
		// q <= (2^256-1)^2, so the carry stops inside q.
		for i := range q {
			q[i]++
			if q[i] != 0 {
				break
			}
		}
	}
	return low(&q), q[4]|q[5]|q[6]|q[7] != 0
}

// DivRoundingUp returns ceil(x/d). Division by zero returns 0.
func DivRoundingUp(x, d Int) Int {
	q, inexact := div(x, d)
	if inexact {
		q = Add(q, One)
	}
	return q
}

// Min returns the smaller of x and y.
func Min(x, y Int) Int {
	if x.Cmp(y) <= 0 {
		return x
	}
	return y
}
