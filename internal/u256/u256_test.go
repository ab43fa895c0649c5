package u256

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// randInt draws a 256-bit value biased toward interesting shapes: small,
// large, and around power-of-two boundaries.
func randInt(r *rand.Rand) Int {
	switch r.Intn(5) {
	case 0:
		return FromUint64(r.Uint64() % 1000)
	case 1:
		return Sub(Max, FromUint64(r.Uint64()%1000))
	case 2:
		return Shl(One, uint(r.Intn(256)))
	default:
		return Int{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
	}
}

func TestFromUint64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 2, 255, 1 << 32, ^uint64(0)} {
		got, ok := FromUint64(v).Uint64()
		if !ok || got != v {
			t.Errorf("FromUint64(%d) round trip = %d, %v", v, got, ok)
		}
	}
}

func TestBigRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		x := randInt(r)
		back, overflow := FromBig(x.ToBig())
		if overflow {
			t.Fatalf("unexpected overflow for %s", x)
		}
		if back != x {
			t.Fatalf("round trip failed: %s != %s", back, x)
		}
	}
}

func TestFromBigOverflow(t *testing.T) {
	over := new(big.Int).Lsh(big.NewInt(1), 256)
	if _, overflow := FromBig(over); !overflow {
		t.Error("2^256 should overflow")
	}
	if _, overflow := FromBig(big.NewInt(-1)); !overflow {
		t.Error("negative should report overflow")
	}
	v, overflow := FromBig(new(big.Int).Sub(over, big.NewInt(1)))
	if overflow || v != Max {
		t.Errorf("2^256-1 = %s overflow=%v, want Max", v, overflow)
	}
}

func TestBytes32RoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		x := randInt(r)
		if got := FromBytes32(x.Bytes32()); got != x {
			t.Fatalf("bytes32 round trip: %s != %s", got, x)
		}
	}
}

func TestBytes32BigEndian(t *testing.T) {
	b := FromUint64(0x0102).Bytes32()
	if b[31] != 0x02 || b[30] != 0x01 {
		t.Errorf("expected big-endian encoding, got %x", b)
	}
}

// refBinop checks a limb-based operation against its big.Int reference,
// reducing mod 2^256.
func refBinop(t *testing.T, name string, op func(x, y Int) Int, ref func(z, x, y *big.Int) *big.Int) {
	t.Helper()
	r := rand.New(rand.NewSource(3))
	mod := new(big.Int).Lsh(big.NewInt(1), 256)
	for i := 0; i < 5000; i++ {
		x, y := randInt(r), randInt(r)
		got := op(x, y)
		want := ref(new(big.Int), x.ToBig(), y.ToBig())
		want.Mod(want, mod)
		if got.ToBig().Cmp(want) != 0 {
			t.Fatalf("%s(%s, %s) = %s, want %s", name, x, y, got, want)
		}
	}
}

func TestAddMatchesBig(t *testing.T) {
	refBinop(t, "Add", Add, func(z, x, y *big.Int) *big.Int { return z.Add(x, y) })
}

func TestSubMatchesBig(t *testing.T) {
	refBinop(t, "Sub", Sub, func(z, x, y *big.Int) *big.Int { return z.Sub(x, y) })
}

func TestMulMatchesBig(t *testing.T) {
	refBinop(t, "Mul", Mul, func(z, x, y *big.Int) *big.Int { return z.Mul(x, y) })
}

func TestDivMatchesBig(t *testing.T) {
	refBinop(t, "Div", Div, func(z, x, y *big.Int) *big.Int {
		if y.Sign() == 0 {
			return z.SetInt64(0)
		}
		return z.Quo(x, y)
	})
}

func TestModMatchesBig(t *testing.T) {
	refBinop(t, "Mod", Mod, func(z, x, y *big.Int) *big.Int {
		if y.Sign() == 0 {
			return z.SetInt64(0)
		}
		return z.Rem(x, y)
	})
}

func TestAddOverflowFlag(t *testing.T) {
	if _, over := AddOverflow(Max, One); !over {
		t.Error("Max+1 should overflow")
	}
	if _, over := AddOverflow(Max, Zero); over {
		t.Error("Max+0 should not overflow")
	}
}

func TestSubUnderflowFlag(t *testing.T) {
	if _, under := SubUnderflow(Zero, One); !under {
		t.Error("0-1 should underflow")
	}
	if _, under := SubUnderflow(One, One); under {
		t.Error("1-1 should not underflow")
	}
}

func TestMulOverflowFlag(t *testing.T) {
	big1 := Shl(One, 200)
	if _, over := MulOverflow(big1, big1); !over {
		t.Error("2^200 * 2^200 should overflow")
	}
	if _, over := MulOverflow(big1, FromUint64(2)); over {
		t.Error("2^200 * 2 should not overflow")
	}
}

func TestShiftsMatchBig(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	mod := new(big.Int).Lsh(big.NewInt(1), 256)
	for i := 0; i < 3000; i++ {
		x := randInt(r)
		n := uint(r.Intn(300))
		wantL := new(big.Int).Lsh(x.ToBig(), n)
		wantL.Mod(wantL, mod)
		if got := Shl(x, n); got.ToBig().Cmp(wantL) != 0 {
			t.Fatalf("Shl(%s, %d) = %s, want %s", x, n, got, wantL)
		}
		wantR := new(big.Int).Rsh(x.ToBig(), n)
		if got := Shr(x, n); got.ToBig().Cmp(wantR) != 0 {
			t.Fatalf("Shr(%s, %d) = %s, want %s", x, n, got, wantR)
		}
	}
}

func TestMulDivMatchesBig(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		x, y, d := randInt(r), randInt(r), randInt(r)
		if d.IsZero() {
			continue
		}
		got, overflow := MulDiv(x, y, d)
		want := new(big.Int).Mul(x.ToBig(), y.ToBig())
		want.Quo(want, d.ToBig())
		wantOverflow := want.BitLen() > 256
		if overflow != wantOverflow {
			t.Fatalf("MulDiv(%s,%s,%s) overflow=%v want %v", x, y, d, overflow, wantOverflow)
		}
		if !overflow && got.ToBig().Cmp(want) != 0 {
			t.Fatalf("MulDiv(%s,%s,%s) = %s, want %s", x, y, d, got, want)
		}
	}
}

func TestMulDivRoundingUp(t *testing.T) {
	got, over := MulDivRoundingUp(FromUint64(10), FromUint64(10), FromUint64(3))
	if over || got != FromUint64(34) {
		t.Errorf("ceil(100/3) = %s, want 34", got)
	}
	got, over = MulDivRoundingUp(FromUint64(10), FromUint64(3), FromUint64(3))
	if over || got != FromUint64(10) {
		t.Errorf("ceil(30/3) = %s, want 10", got)
	}
	if _, over := MulDivRoundingUp(One, One, Zero); !over {
		t.Error("division by zero should overflow")
	}
}

func TestDivRoundingUp(t *testing.T) {
	if got := DivRoundingUp(FromUint64(7), FromUint64(2)); got != FromUint64(4) {
		t.Errorf("ceil(7/2) = %s", got)
	}
	if got := DivRoundingUp(FromUint64(8), FromUint64(2)); got != FromUint64(4) {
		t.Errorf("ceil(8/2) = %s", got)
	}
	if got := DivRoundingUp(FromUint64(8), Zero); !got.IsZero() {
		t.Errorf("x/0 = %s, want 0", got)
	}
}

// limbs encodes little-endian limbs as the 32-byte big-endian fuzz input.
func limbs(l0, l1, l2, l3 uint64) []byte {
	b := Int{l0, l1, l2, l3}.Bytes32()
	return b[:]
}

// fuzzInt decodes a fuzz input as a big-endian value, keeping its last 32
// bytes and zero-extending shorter inputs.
func fuzzInt(b []byte) Int {
	var buf [32]byte
	if len(b) > 32 {
		b = b[len(b)-32:]
	}
	copy(buf[32-len(b):], b)
	return FromBytes32(buf)
}

// FuzzMulDiv checks every division against big.Int, value and overflow
// flag: MulDiv and MulDivRoundingUp on x*y/d, and Div, Mod and
// DivRoundingUp on x/d. The seeds cover each kernel quoRem picks (shift,
// one limb, two limbs, Algorithm D) and each branch within them.
func FuzzMulDiv(f *testing.F) {
	ones := ^uint64(0)
	seeds := [][3][]byte{
		// Divisors of 1, 2, 3 and 4 limbs.
		{limbs(ones, ones, 7, 1<<60), limbs(3, 0, 0, 9), limbs(1_000_000, 0, 0, 0)},
		{limbs(ones, 1, ones, 5), limbs(ones, ones, ones, ones), limbs(11, 1<<32, 0, 0)},
		{limbs(5, 6, 7, 8), limbs(9, 10, 11, 12), limbs(13, 14, 15, 0)},
		{limbs(ones, ones, ones, ones), limbs(2, 3, 5, 7), limbs(1, 2, 3, 4)},
		// Top divisor limb with no leading zeros, and with 63.
		{limbs(ones, ones, ones, ones), limbs(ones, ones, ones, ones), limbs(1, 0, 0, 1<<63)},
		{limbs(ones, ones, ones, ones), limbs(ones, ones, ones, ones), limbs(ones, ones, 0, 1)},
		// q̂ = 2^64-1: the dividend's top limb equals the normalized
		// divisor's top limb.
		{limbs(0xac79d81547f02daa, 0xfffffffffffffffe, 0x2, 0x8000000000000000),
			limbs(0xffffffffffffffff, 0xab639c6e9ef632d8, 0xffffffffffffffff, 0),
			limbs(0x06208ccef90a5b41, 0xe0cb7ec70332fa39, 0x7fffffffffffffff, 0)},
		// Add-back: q̂ survives refinement but is one too large.
		{limbs(0xffffffffffffffff, 0x7fffffffffffffff, 0x8000000000000000, 0),
			limbs(0xbec47853977a2012, 0x7fffffffffffffff, 0x8000000000000000, 0),
			limbs(0, 0x8000000000000000, 0, 0x8000000000000000)},
		// Exactly divisible product: no rounding up.
		{limbs(0, 0, 1, 0), limbs(3, 0, 0, 0), limbs(3, 0, 0, 0)},
		// d = 1 with a quotient above 2^256.
		{limbs(ones, ones, ones, ones), limbs(ones, ones, ones, ones), limbs(1, 0, 0, 0)},
		// Division by zero.
		{limbs(1, 2, 3, 4), limbs(5, 6, 7, 8), limbs(0, 0, 0, 0)},
		// ÷2^96 and ÷2^128 are shifts: bits shifted out, and none.
		{limbs(123, 456, 0, 0), limbs(789, 0, 0, 0), limbs(0, 1<<32, 0, 0)},
		{limbs(0, 3<<32, 0, 0), limbs(5, 0, 0, 0), limbs(0, 1<<32, 0, 0)},
		{limbs(1, 2, 3, 0), limbs(7, 0, 0, 0), limbs(0, 0, 1, 0)},
		{limbs(0, 0, 9, 0), limbs(ones, ones, 0, 0), limbs(0, 0, 1, 0)},
		// One-limb operands whose quotient needs a second limb.
		{limbs(ones, 0, 0, 0), limbs(ones-1, 0, 0, 0), limbs(3, 0, 0, 0)},
		// Two-limb divisors: the remainder's top limb equals the divisor's,
		// so q̂ starts at 2^64-1; and a q̂ two too large, corrected twice.
		{limbs(7, 5, 1<<63, 0), limbs(1, 0, 0, 0), limbs(1<<63, 1<<63, 0, 0)},
		{limbs(0x87b851cb8fafd2b0, 0x77da9cacd47e38a3, 0x63196869b8b5df4b, 0), limbs(1, 0, 0, 0),
			limbs(0xffffffffffe5abd7, 0x82f006dab9825288, 0, 0)},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1], s[2])
	}
	f.Fuzz(func(t *testing.T, xb, yb, db []byte) {
		x, y, d := fuzzInt(xb), fuzzInt(yb), fuzzInt(db)
		bx, by, bd := x.ToBig(), y.ToBig(), d.ToBig()
		check := func(name string, got Int, gotOver bool, ref Int, refOver bool) {
			t.Helper()
			if got != ref || gotOver != refOver {
				t.Fatalf("%s(%s, %s, %s) = %s overflow=%v, want %s overflow=%v",
					name, x, y, d, got, gotOver, ref, refOver)
			}
		}
		if d.IsZero() {
			q, over := MulDiv(x, y, d)
			check("MulDiv", q, over, Zero, true)
			q, over = MulDivRoundingUp(x, y, d)
			check("MulDivRoundingUp", q, over, Zero, true)
			check("Div", Div(x, d), false, Zero, false)
			check("Mod", Mod(x, d), false, Zero, false)
			check("DivRoundingUp", DivRoundingUp(x, d), false, Zero, false)
			return
		}
		p := new(big.Int).Mul(bx, by)
		pq, pr := new(big.Int).QuoRem(p, bd, new(big.Int))
		ref, refOver := FromBig(pq)
		q, over := MulDiv(x, y, d)
		check("MulDiv", q, over, ref, refOver)
		if pr.Sign() != 0 {
			pq.Add(pq, big.NewInt(1))
		}
		ref, refOver = FromBig(pq)
		q, over = MulDivRoundingUp(x, y, d)
		check("MulDivRoundingUp", q, over, ref, refOver)

		xq, xr := new(big.Int).QuoRem(bx, bd, new(big.Int))
		ref, _ = FromBig(xq)
		check("Div", Div(x, d), false, ref, false)
		refMod, _ := FromBig(xr)
		check("Mod", Mod(x, d), false, refMod, false)
		if xr.Sign() != 0 {
			xq.Add(xq, big.NewInt(1))
		}
		ref, _ = FromBig(xq)
		check("DivRoundingUp", DivRoundingUp(x, d), false, ref, false)
	})
}

func TestCmpOrdering(t *testing.T) {
	vals := []Int{Zero, One, FromUint64(2), Shl(One, 64), Shl(One, 128), Shl(One, 192), Max}
	for i := range vals {
		for j := range vals {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := vals[i].Cmp(vals[j]); got != want {
				t.Errorf("Cmp(%s, %s) = %d, want %d", vals[i], vals[j], got, want)
			}
		}
	}
}

func TestBitLen(t *testing.T) {
	if got := Zero.BitLen(); got != 0 {
		t.Errorf("BitLen(0) = %d", got)
	}
	for _, n := range []uint{0, 1, 63, 64, 65, 127, 128, 255} {
		if got := Shl(One, n).BitLen(); got != int(n)+1 {
			t.Errorf("BitLen(2^%d) = %d, want %d", n, got, n+1)
		}
	}
}

func TestQuickAddSubInverse(t *testing.T) {
	f := func(a, b, c, d uint64, e, g uint64) bool {
		x := Int{a, b, c, d}
		y := Int{e, g, 0, 0}
		return Sub(Add(x, y), y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMulCommutative(t *testing.T) {
	f := func(a, b, c, d, e, g, h, k uint64) bool {
		x := Int{a, b, c, d}
		y := Int{e, g, h, k}
		return Mul(x, y) == Mul(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDivModIdentity(t *testing.T) {
	f := func(a, b, c, d, e, g uint64) bool {
		x := Int{a, b, c, d}
		y := Int{e, g, 0, 0}
		if y.IsZero() {
			return true
		}
		q, m := Div(x, y), Mod(x, y)
		return Add(Mul(q, y), m) == x && m.Lt(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMustFromDecimal(t *testing.T) {
	if got := MustFromDecimal("340282366920938463463374607431768211456"); got != Q128 {
		t.Errorf("decimal 2^128 = %s", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("bad decimal should panic")
		}
	}()
	MustFromDecimal("not a number")
}

func TestMinMax(t *testing.T) {
	a, b := FromUint64(3), FromUint64(7)
	if Min(a, b) != a || Min(b, a) != a {
		t.Error("Min broken")
	}
	if Min(Max, b) != b || Min(a, Max) != a {
		t.Error("Min against Max broken")
	}
}

func BenchmarkAdd(b *testing.B) {
	x, y := Shl(One, 200), Shl(One, 190)
	for i := 0; i < b.N; i++ {
		_ = Add(x, y)
	}
}

func BenchmarkMul(b *testing.B) {
	x, y := Sub(Shl(One, 128), One), Sub(Shl(One, 120), FromUint64(3))
	for i := 0; i < b.N; i++ {
		_ = Mul(x, y)
	}
}

// BenchmarkMulDiv times the division shapes a swap step produces, with the
// genesis pool's liquidity (1e13, one limb) and a sqrt price near 2^96.
func BenchmarkMulDiv(b *testing.B) {
	liq := FromUint64(10_000_000_000_000)
	delta := Div(Q96, FromUint64(333)) // a 0.3% price move
	sqrtB := Add(Q96, delta)
	cases := []struct {
		name       string
		x, y, d    Int
		roundingUp bool
	}{
		{"fee", FromUint64(1_000_000), FromUint64(997_000), FromUint64(1_000_000), false},
		{"divQ96", liq, delta, Q96, false},
		{"mulQ96divL", FromUint64(1_000_000), Q96, liq, false},
		{"amount0Delta", Shl(liq, 96), delta, sqrtB, true},
		{"mulQ128divL", FromUint64(3_000), Q128, liq, false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if c.roundingUp {
					sink, _ = MulDivRoundingUp(c.x, c.y, c.d)
				} else {
					sink, _ = MulDiv(c.x, c.y, c.d)
				}
			}
		})
	}
}

// sink keeps benchmarked results live.
var sink Int

// FuzzBytes32 checks the 32-byte big-endian codec against big.Int for
// byte-chosen values: FromBytes32 is SetBytes, and Bytes32 is FillBytes
// of the same value into 32 bytes.
func FuzzBytes32(f *testing.F) {
	ones := ^uint64(0)
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add(limbs(0x0102030405060708, 0x1112131415161718, 0x2122232425262728, 0x3132333435363738))
	f.Add(limbs(ones, 0, ones, 0))
	f.Add(limbs(ones, ones, ones, ones))
	f.Fuzz(func(t *testing.T, b []byte) {
		var buf [32]byte
		copy(buf[:], b)
		ref := new(big.Int).SetBytes(buf[:])
		x := FromBytes32(buf)
		if x.ToBig().Cmp(ref) != 0 {
			t.Fatalf("FromBytes32(%x) = %s, want %s", buf, x, ref)
		}
		v, _ := FromBig(ref)
		if got, want := v.Bytes32(), ref.FillBytes(make([]byte, 32)); string(got[:]) != string(want) {
			t.Fatalf("Bytes32(%s) = %x, want %x", ref, got, want)
		}
	})
}
