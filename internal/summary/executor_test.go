package summary

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"testing"

	"ammboost/internal/amm"
	"ammboost/internal/gasmodel"
	"ammboost/internal/u256"
)

func newPool(t *testing.T) *amm.Pool {
	t.Helper()
	p, err := amm.NewPool("A", "B", 3000, 60, u256.Q96)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func dep(a0, a1 uint64) Deposit {
	return Deposit{Amount0: u256.FromUint64(a0), Amount1: u256.FromUint64(a1)}
}

// depositOf returns user's deposit, zero when the user has none.
func depositOf(ex *Executor, user string) Deposit {
	d, _ := ex.Deposit(user)
	return d
}

// depositsOf copies the executor's deposits out by user name.
func depositsOf(ex *Executor) map[string]Deposit {
	out := make(map[string]Deposit)
	for _, p := range ex.deps.Payouts(ex.users) {
		out[p.User] = Deposit{Amount0: p.Amount0, Amount1: p.Amount1}
	}
	return out
}

// totalDeposits sums the executor's deposit balances.
func totalDeposits(ex *Executor) (t0, t1 u256.Int) {
	for _, d := range ex.deps.rows {
		t0 = u256.Add(t0, d.Amount0)
		t1 = u256.Add(t1, d.Amount1)
	}
	return t0, t1
}

// seedLiquidity gives the pool a base position owned by "lp0" so swaps have
// depth, funded outside the executor (pre-epoch state).
func seedLiquidity(t *testing.T, p *amm.Pool) {
	t.Helper()
	if _, err := p.Mint("seed", "lp0", -12000, 12000, u256.FromUint64(50_000_000_000)); err != nil {
		t.Fatal(err)
	}
}

func TestSwapUpdatesDeposit(t *testing.T) {
	p := newPool(t)
	seedLiquidity(t, p)
	ex := NewExecutor(1, p, map[string]Deposit{"alice": dep(10_000, 15_000)})
	tx := &Tx{ID: "t1", Kind: gasmodel.KindSwap, User: "alice", ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(5_000)}
	if err := ex.Apply(tx, 1); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	d := depositOf(ex, "alice")
	if !d.Amount0.Eq(u256.FromUint64(5_000)) {
		t.Errorf("deposit0 = %s, want 5000", d.Amount0)
	}
	if !d.Amount1.Gt(u256.FromUint64(15_000)) {
		t.Errorf("deposit1 = %s, should have grown", d.Amount1)
	}
	// The paper's worked example: newly accrued tokens are immediately
	// tradable. Swap the proceeds back.
	tx2 := &Tx{ID: "t2", Kind: gasmodel.KindSwap, User: "alice", ZeroForOne: false, ExactIn: true,
		Amount: u256.Sub(d.Amount1, u256.FromUint64(15_000))}
	if err := ex.Apply(tx2, 2); err != nil {
		t.Fatalf("Apply round trip: %v", err)
	}
}

func TestSwapRejectedWithoutDeposit(t *testing.T) {
	p := newPool(t)
	seedLiquidity(t, p)
	ex := NewExecutor(1, p, map[string]Deposit{"alice": dep(100, 0)})
	tx := &Tx{ID: "t1", Kind: gasmodel.KindSwap, User: "alice", ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(5_000)}
	if err := ex.Apply(tx, 1); !errors.Is(err, ErrInsufficientDeposit) {
		t.Errorf("want ErrInsufficientDeposit, got %v", err)
	}
	tx2 := &Tx{ID: "t2", Kind: gasmodel.KindSwap, User: "bob", ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(10)}
	if err := ex.Apply(tx2, 1); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("want ErrUnknownUser, got %v", err)
	}
	if ex.Rejected != 2 {
		t.Errorf("Rejected = %d", ex.Rejected)
	}
}

// TestDepositCreditOverflow: a credit that would carry a deposit past
// 2^256-1 fails with ErrDepositOverflow and changes neither the deposit
// nor the pool — a second near-max deposit, a swap's output and a burn's
// proceeds alike.
func TestDepositCreditOverflow(t *testing.T) {
	p := newPool(t)
	seedLiquidity(t, p)
	ex := NewExecutor(1, p, map[string]Deposit{"lp0": dep(1<<40, 0)})
	if err := ex.AddDeposit("whale", u256.Max, u256.Zero); err != nil {
		t.Fatalf("first near-max deposit: %v", err)
	}
	if err := ex.AddDeposit("whale", u256.One, u256.Zero); !errors.Is(err, ErrDepositOverflow) {
		t.Errorf("second deposit: err = %v, want ErrDepositOverflow", err)
	}
	if d := depositOf(ex, "whale"); !d.Amount0.Eq(u256.Max) || !d.Amount1.IsZero() {
		t.Errorf("whale deposit = %s/%s after a refused credit, want max/0", d.Amount0, d.Amount1)
	}
	if err := ex.AddDeposit("lp0", u256.Zero, u256.Sub(u256.Max, u256.FromUint64(1000))); err != nil {
		t.Fatal(err)
	}
	pool := amm.AppendPool(nil, ex.Pool)
	before := depositOf(ex, "lp0")
	for _, tx := range []*Tx{
		{ID: "swap", Kind: gasmodel.KindSwap, User: "lp0", ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(1 << 20)},
		{ID: "burn", Kind: gasmodel.KindBurn, User: "lp0", PosID: "seed", BurnFractionBps: 5000},
		{ID: "collect", Kind: gasmodel.KindCollect, User: "lp0", PosID: "seed", Collect0: u256.Max, Collect1: u256.Max},
	} {
		if err := ex.Apply(tx, 1); !errors.Is(err, ErrDepositOverflow) {
			t.Errorf("%s: err = %v, want ErrDepositOverflow", tx.ID, err)
		}
		if !bytes.Equal(amm.AppendPool(nil, ex.Pool), pool) {
			t.Errorf("%s: refused credit changed the pool", tx.ID)
		}
		if depositOf(ex, "lp0") != before {
			t.Errorf("%s: refused credit changed the deposit", tx.ID)
		}
	}
}

func TestSwapDeadline(t *testing.T) {
	p := newPool(t)
	seedLiquidity(t, p)
	ex := NewExecutor(1, p, map[string]Deposit{"alice": dep(10_000, 0)})
	tx := &Tx{ID: "t1", Kind: gasmodel.KindSwap, User: "alice", ZeroForOne: true, ExactIn: true,
		Amount: u256.FromUint64(100), DeadlineRound: 5}
	if err := ex.Apply(tx, 6); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("want ErrDeadlineExceeded, got %v", err)
	}
	if err := ex.Apply(tx, 5); err != nil {
		t.Errorf("at the deadline should pass: %v", err)
	}
}

func TestSwapSlippageBoundRollsBack(t *testing.T) {
	for _, tc := range []struct {
		name    string
		deposit Deposit
		tx      Tx
		want    error
		crosses bool
	}{
		{"exact-in below min-out", dep(1_000_000, 0),
			Tx{ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(100_000), OutBound: u256.FromUint64(200_000)},
			ErrSlippage, false},
		{"exact-out above max-in", dep(1_000_000, 0),
			Tx{ZeroForOne: true, Amount: u256.FromUint64(50_000), OutBound: u256.FromUint64(1_000)},
			ErrSlippage, false},
		{"exact-out past the deposit after crossing a tick", dep(1_000_000, 0),
			Tx{ZeroForOne: true, Amount: u256.FromUint64(1_000_000_000_000)},
			ErrInsufficientDeposit, true},
		// More than the pool holds: the swap crosses every tick up to the
		// top of the price range, and the input that partial fill needs
		// exceeds the deposit.
		{"exact-out the pool cannot fill", dep(0, 1<<62),
			Tx{Amount: u256.FromUint64(1 << 62)},
			ErrInsufficientDeposit, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Full-range depth plus a range ending at tick 0, with the
			// price nudged just below it: swaps either way meet a tick.
			p := newPool(t)
			depth := u256.Shl(u256.One, 42)
			if _, err := p.Mint("full", "lp0", -887220, 887220, depth); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Mint("narrow", "lp0", -300, 0, depth); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Swap(true, true, u256.FromUint64(64), u256.Zero); err != nil {
				t.Fatal(err)
			}
			ex := NewExecutor(1, p, map[string]Deposit{"alice": tc.deposit})
			before := amm.AppendPool(nil, ex.Pool)
			tx := tc.tx
			tx.ID, tx.Kind, tx.User = "t1", gasmodel.KindSwap, "alice"
			res, _ := ex.Pool.Clone().Swap(tx.ZeroForOne, tx.ExactIn, tx.Amount, tx.SqrtPriceLimit)
			if (res.TicksCrossed > 0) != tc.crosses {
				t.Fatalf("unchecked swap crossed %d ticks, want crossing %v", res.TicksCrossed, tc.crosses)
			}
			if err := ex.Apply(&tx, 1); !errors.Is(err, tc.want) {
				t.Fatalf("want %v, got %v", tc.want, err)
			}
			if !bytes.Equal(amm.AppendPool(nil, ex.Pool), before) {
				t.Error("failed swap must leave the pool untouched")
			}
			if depositOf(ex, "alice") != tc.deposit {
				t.Error("failed swap must not touch the deposit")
			}
		})
	}
}

// TestExactOutSwapAllocsIndependentOfPositions: what one exact-out swap
// allocates does not depend on how much state the pool holds.
func TestExactOutSwapAllocsIndependentOfPositions(t *testing.T) {
	allocs := func(positions int) float64 {
		p := newPool(t)
		// Same in-range liquidity either way, so the swap arithmetic is
		// the same and only the amount of state differs.
		each := u256.FromUint64(20_000_000_000_000 / uint64(positions))
		for i := 0; i < positions; i++ {
			if _, err := p.Mint(fmt.Sprintf("pos%d", i), "lp0", -12000, 12000, each); err != nil {
				t.Fatal(err)
			}
		}
		ex := NewExecutor(1, p, map[string]Deposit{"alice": dep(1<<40, 1<<40)})
		tx := &Tx{ID: "t1", Kind: gasmodel.KindSwap, User: "alice", Amount: u256.FromUint64(50_000)}
		return testing.AllocsPerRun(50, func() {
			tx.ZeroForOne = !tx.ZeroForOne // alternate to keep the price centred
			if err := ex.Apply(tx, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A whole-pool copy costs an allocation per position; math/big's
	// scratch pool moves the count by one or two between runs.
	if few, many := allocs(4), allocs(400); many > few+4 {
		t.Errorf("exact-out swap allocates %.0f with 4 positions, %.0f with 400", few, many)
	}
}

func TestExactOutSwap(t *testing.T) {
	p := newPool(t)
	seedLiquidity(t, p)
	ex := NewExecutor(1, p, map[string]Deposit{"alice": dep(1_000_000, 0)})
	want := u256.FromUint64(50_000)
	tx := &Tx{ID: "t1", Kind: gasmodel.KindSwap, User: "alice", ZeroForOne: true, ExactIn: false, Amount: want}
	if err := ex.Apply(tx, 1); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	d := depositOf(ex, "alice")
	if !d.Amount1.Eq(want) {
		t.Errorf("received %s, want exactly %s", d.Amount1, want)
	}
	if !d.Amount0.Lt(u256.FromUint64(1_000_000)) {
		t.Error("input side should have been charged")
	}
}

func TestMintBurnCollectLifecycle(t *testing.T) {
	// No seed position: the LP under test is the sole liquidity, so all
	// swap fees accrue to it.
	p := newPool(t)
	ex := NewExecutor(1, p, map[string]Deposit{
		"lp":     dep(1_000_000, 1_000_000),
		"trader": dep(500_000, 500_000),
	})
	mint := &Tx{ID: "m1", Kind: gasmodel.KindMint, User: "lp", TickLower: -600, TickUpper: 600,
		Amount0Desired: u256.FromUint64(400_000), Amount1Desired: u256.FromUint64(400_000)}
	if err := ex.Apply(mint, 1); err != nil {
		t.Fatalf("mint: %v", err)
	}
	posID := DerivePositionID("m1", "lp")
	pos := ex.Pool.Position(posID)
	if pos == nil {
		t.Fatal("position not created")
	}
	d := depositOf(ex, "lp")
	if !d.Amount0.Lt(u256.FromUint64(1_000_000)) || !d.Amount1.Lt(u256.FromUint64(1_000_000)) {
		t.Error("mint should deduct from the deposit")
	}

	// Trade through the range to accrue fees.
	for i := 0; i < 10; i++ {
		swap := &Tx{ID: fmt.Sprintf("s%d", i), Kind: gasmodel.KindSwap, User: "trader",
			ZeroForOne: i%2 == 0, ExactIn: true, Amount: u256.FromUint64(30_000)}
		if err := ex.Apply(swap, 1); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}

	// Collect fees.
	collect := &Tx{ID: "c1", Kind: gasmodel.KindCollect, User: "lp", PosID: posID,
		Collect0: u256.Max, Collect1: u256.Max}
	before0 := depositOf(ex, "lp").Amount0
	if err := ex.Apply(collect, 2); err != nil {
		t.Fatalf("collect: %v", err)
	}
	if !depositOf(ex, "lp").Amount0.Gt(before0) {
		t.Error("collect should credit fees to the deposit")
	}

	// Full burn pays principal + residual fees and deletes the position.
	burn := &Tx{ID: "b1", Kind: gasmodel.KindBurn, User: "lp", PosID: posID, Liquidity: pos.Liquidity}
	if err := ex.Apply(burn, 3); err != nil {
		t.Fatalf("burn: %v", err)
	}
	if ex.Pool.Position(posID) != nil {
		t.Error("full burn should delete the position")
	}
	sum := ex.Summary(nil)
	var found *PositionEntry
	for i := range sum.Positions {
		if sum.Positions[i].ID == posID {
			found = &sum.Positions[i]
		}
	}
	if found == nil || !found.Deleted {
		t.Error("summary should carry the deletion for TokenBank")
	}
}

func TestMintInsufficientDepositUnwinds(t *testing.T) {
	p := newPool(t)
	seedLiquidity(t, p)
	ex := NewExecutor(1, p, map[string]Deposit{"lp": dep(10, 10)})
	positions := ex.Pool.NumPositions()
	mint := &Tx{ID: "m1", Kind: gasmodel.KindMint, User: "lp", TickLower: -600, TickUpper: 600,
		Amount0Desired: u256.FromUint64(1_000_000), Amount1Desired: u256.FromUint64(1_000_000)}
	if err := ex.Apply(mint, 1); !errors.Is(err, ErrInsufficientDeposit) {
		t.Fatalf("want ErrInsufficientDeposit, got %v", err)
	}
	if ex.Pool.NumPositions() != positions {
		t.Error("failed mint must not leave a position behind")
	}
	if !depositOf(ex, "lp").Amount0.Eq(u256.FromUint64(10)) {
		t.Error("failed mint must not touch the deposit")
	}
}

// TestMintOutOfRangeTickRejected: a mint whose ticks lie outside
// [MinTick, MaxTick] is a typed rejection that leaves the pool and the
// deposit alone, not a panic inside SqrtRatioAtTick.
func TestMintOutOfRangeTickRejected(t *testing.T) {
	p := newPool(t)
	seedLiquidity(t, p)
	ex := NewExecutor(1, p, map[string]Deposit{"lp": dep(1_000_000, 1_000_000)})
	positions := ex.Pool.NumPositions()
	for _, r := range [][2]int32{{881820, 889560}, {-889560, -600}, {900000, 0}} {
		mint := &Tx{ID: "m-hostile", Kind: gasmodel.KindMint, User: "lp", TickLower: r[0], TickUpper: r[1],
			Amount0Desired: u256.FromUint64(1_000), Amount1Desired: u256.FromUint64(1_000)}
		if err := ex.Apply(mint, 1); !errors.Is(err, amm.ErrInvalidTickRange) {
			t.Errorf("mint [%d, %d]: %v, want ErrInvalidTickRange", r[0], r[1], err)
		}
	}
	if ex.Pool.NumPositions() != positions || !depositOf(ex, "lp").Amount0.Eq(u256.FromUint64(1_000_000)) {
		t.Error("rejected mint touched the pool or the deposit")
	}
}

func TestBurnWrongOwnerRejected(t *testing.T) {
	p := newPool(t)
	seedLiquidity(t, p)
	ex := NewExecutor(1, p, map[string]Deposit{"mallory": dep(100, 100)})
	burn := &Tx{ID: "b1", Kind: gasmodel.KindBurn, User: "mallory", PosID: "seed", Liquidity: u256.FromUint64(1)}
	if err := ex.Apply(burn, 1); !errors.Is(err, amm.ErrNotPositionOwner) {
		t.Errorf("want ErrNotPositionOwner, got %v", err)
	}
}

// TestConservation is the paper's core token-safety invariant: deposits +
// pool reserves are constant under any mix of sidechain transactions.
func TestConservation(t *testing.T) {
	p := newPool(t)
	seedLiquidity(t, p)
	deposits := map[string]Deposit{
		"alice": dep(1_000_000, 1_000_000),
		"bob":   dep(2_000_000, 500_000),
		"lp":    dep(3_000_000, 3_000_000),
	}
	ex := NewExecutor(1, p, deposits)
	d0, d1 := totalDeposits(ex)
	start0 := u256.Add(d0, ex.Pool.Reserve0)
	start1 := u256.Add(d1, ex.Pool.Reserve1)

	txs := []*Tx{
		{ID: "s1", Kind: gasmodel.KindSwap, User: "alice", ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(200_000)},
		{ID: "m1", Kind: gasmodel.KindMint, User: "lp", TickLower: -1200, TickUpper: 1200,
			Amount0Desired: u256.FromUint64(1_000_000), Amount1Desired: u256.FromUint64(1_000_000)},
		{ID: "s2", Kind: gasmodel.KindSwap, User: "bob", ZeroForOne: false, ExactIn: true, Amount: u256.FromUint64(300_000)},
		{ID: "s3", Kind: gasmodel.KindSwap, User: "alice", ZeroForOne: false, ExactIn: true, Amount: u256.FromUint64(100_000)},
		{ID: "c1", Kind: gasmodel.KindCollect, User: "lp", PosID: DerivePositionID("m1", "lp"),
			Collect0: u256.Max, Collect1: u256.Max},
		{ID: "b1", Kind: gasmodel.KindBurn, User: "lp", PosID: DerivePositionID("m1", "lp"), Liquidity: u256.FromUint64(100_000)},
		{ID: "s4", Kind: gasmodel.KindSwap, User: "bob", ZeroForOne: true, ExactIn: false, Amount: u256.FromUint64(50_000)},
	}
	for _, tx := range txs {
		if err := ex.Apply(tx, 1); err != nil {
			t.Fatalf("%s: %v", tx.ID, err)
		}
	}
	d0, d1 = totalDeposits(ex)
	end0 := u256.Add(d0, ex.Pool.Reserve0)
	end1 := u256.Add(d1, ex.Pool.Reserve1)
	if !end0.Eq(start0) || !end1.Eq(start1) {
		t.Errorf("conservation violated: token0 %s→%s, token1 %s→%s", start0, end0, start1, end1)
	}
}

func TestSummaryPayoutsEqualDeposits(t *testing.T) {
	p := newPool(t)
	seedLiquidity(t, p)
	ex := NewExecutor(3, p, map[string]Deposit{"alice": dep(500, 700), "bob": dep(900, 0)})
	swap := &Tx{ID: "s", Kind: gasmodel.KindSwap, User: "alice", ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(500)}
	if err := ex.Apply(swap, 1); err != nil {
		t.Fatal(err)
	}
	sum := ex.Summary([]byte("vkc"))
	if sum.Epoch != 3 {
		t.Errorf("epoch = %d", sum.Epoch)
	}
	if len(sum.Payouts) != 2 {
		t.Fatalf("payouts = %d, want one per user", len(sum.Payouts))
	}
	for _, e := range sum.Payouts {
		d := depositOf(ex, e.User)
		if !e.Amount0.Eq(d.Amount0) || !e.Amount1.Eq(d.Amount1) {
			t.Errorf("payout for %s = %s/%s, deposit %s/%s", e.User, e.Amount0, e.Amount1, d.Amount0, d.Amount1)
		}
	}
	// Fig. 4: the swap filled against the seed position, so its fee entry
	// must be in the summary.
	foundSeed := false
	for _, e := range sum.Positions {
		if e.ID == "seed" {
			foundSeed = true
			if e.Fees0.IsZero() {
				t.Error("seed position should show accrued token0 fees")
			}
		}
	}
	if !foundSeed {
		t.Error("position whose liquidity filled the swap missing from summary")
	}
	if !sum.PoolReserve0.Eq(ex.Pool.Reserve0) || !sum.PoolReserve1.Eq(ex.Pool.Reserve1) {
		t.Error("summary reserves should mirror the pool")
	}
}

func TestSummaryDeterministicOrder(t *testing.T) {
	p := newPool(t)
	seedLiquidity(t, p)
	mk := func() *SyncPayload {
		ex := NewExecutor(1, p, map[string]Deposit{"z": dep(10, 10), "a": dep(20, 20), "m": dep(30, 30)})
		return ex.Summary(nil)
	}
	a, b := mk(), mk()
	if a.Digest() != b.Digest() {
		t.Error("summaries over identical state must have identical digests")
	}
	for i := 1; i < len(a.Payouts); i++ {
		if a.Payouts[i-1].User >= a.Payouts[i].User {
			t.Error("payouts not sorted")
		}
	}
}

// TestPayoutsInIndexOrder: Summary lists payouts by walking the user
// table's index order, and sorts only a table whose names were not added
// in byte order. A node's table is sorted, so its payouts need no sort.
func TestPayoutsInIndexOrder(t *testing.T) {
	names := []string{"user-07", "user-01", "user-19", "user-03", "user-11"}
	sorted := slices.Sorted(slices.Values(names))
	p := newPool(t)
	seedLiquidity(t, p)
	users := NewUsers(sorted...)
	var deps Ledger
	for i, name := range names { // first credits land out of name order
		if err := deps.Add(users.Lookup(name), u256.FromUint64(uint64(100+i)), u256.Zero); err != nil {
			t.Fatal(err)
		}
	}
	got := OpenExecutor(1, p, users, &deps).Summary(nil).Payouts
	if len(got) != len(sorted) {
		t.Fatalf("%d payouts, want %d", len(got), len(sorted))
	}
	for i, e := range got {
		if e.User != sorted[i] {
			t.Fatalf("payout %d is %s, want %s", i, e.User, sorted[i])
		}
	}

	// The walk itself never sorts: a table that claims byte order emits
	// its index order as it stands.
	liar := &Users{names: []string{"b", "a"}, sorted: true}
	var two Ledger
	_ = two.Add(1, u256.One, u256.Zero)
	_ = two.Add(0, u256.One, u256.Zero)
	if got := two.Payouts(liar); got[0].User != "b" || got[1].User != "a" {
		t.Errorf("payouts %s, %s: want index order b, a", got[0].User, got[1].User)
	}
	// A table built out of order is sorted by name at Summary.
	if got := two.Payouts(NewUsers("b", "a")); got[0].User != "a" || got[1].User != "b" {
		t.Errorf("payouts %s, %s on an unsorted table: want a, b", got[0].User, got[1].User)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	p := newPool(t)
	seedLiquidity(t, p)
	ex := NewExecutor(1, p, map[string]Deposit{"alice": dep(1_000_000, 0)})
	swap := &Tx{ID: "s", Kind: gasmodel.KindSwap, User: "alice", ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(500_000)}
	if err := ex.Apply(swap, 1); err != nil {
		t.Fatal(err)
	}
	if !p.SqrtPriceX96.Eq(u256.Q96) {
		t.Error("executor must trade on a snapshot, not the live pool")
	}
}

func TestMidEpochDeposit(t *testing.T) {
	p := newPool(t)
	seedLiquidity(t, p)
	ex := NewExecutor(1, p, map[string]Deposit{})
	swap := &Tx{ID: "s", Kind: gasmodel.KindSwap, User: "carol", ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(100)}
	if err := ex.Apply(swap, 1); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("want ErrUnknownUser, got %v", err)
	}
	ex.AddDeposit("carol", u256.FromUint64(1_000), u256.Zero)
	if err := ex.Apply(swap, 2); err != nil {
		t.Fatalf("after deposit: %v", err)
	}
}

func TestEncodedSizesMatchTable4(t *testing.T) {
	p := &SyncPayload{
		Payouts:   []PayoutEntry{{User: "alice"}, {User: "bob"}},
		Positions: []PositionEntry{{ID: "p1", Owner: "lp"}},
	}
	enc := p.EncodeBinary()
	want := 2*gasmodel.SCPayoutEntryBytes + 1*gasmodel.SCPositionEntryBytes
	if len(enc) != want {
		t.Errorf("binary encoding = %d bytes, want %d (97/payout + 215/position)", len(enc), want)
	}
	if got := p.MainchainBytes(); got != 2*352+416+128+64 {
		t.Errorf("mainchain bytes = %d", got)
	}
}

func TestDerivePositionIDUnique(t *testing.T) {
	a := DerivePositionID("tx1", "lp1")
	b := DerivePositionID("tx2", "lp1")
	c := DerivePositionID("tx1", "lp2")
	if a == b || a == c || b == c {
		t.Error("position IDs must be unique per (tx, owner)")
	}
	if DerivePositionID("tx1", "lp1") != a {
		t.Error("position ID derivation must be deterministic")
	}
}

// TestSettleThenSummaryIsPure pins the pipelined hand-off seam: Settle
// is the executor's last pool mutation (idempotent), and Summary after
// an explicit Settle is a pure read producing exactly what the
// one-shot Summary path produces — the contract that lets the commit
// stage build payloads on another goroutine while the sealed pool is
// cloned by the next epoch.
func TestSettleThenSummaryIsPure(t *testing.T) {
	build := func() *Executor {
		p := newPool(t)
		seedLiquidity(t, p)
		ex := NewExecutor(1, p, map[string]Deposit{"alice": dep(1_000_000, 1_000_000)})
		for i, amt := range []uint64{40_000, 25_000, 60_000} {
			tx := &Tx{ID: fmt.Sprintf("s%d", i), Kind: gasmodel.KindSwap, User: "alice",
				ZeroForOne: i%2 == 0, ExactIn: true, Amount: u256.FromUint64(amt)}
			if err := ex.Apply(tx, uint64(i+1)); err != nil {
				t.Fatalf("Apply %d: %v", i, err)
			}
		}
		return ex
	}

	oneShot := build().Summary([]byte("k"))

	ex := build()
	ex.Settle()
	ex.Settle() // idempotent: the second call must not re-poke
	split := ex.Summary([]byte("k"))
	if oneShot.Digest() != split.Digest() {
		t.Error("Settle+Summary digest diverged from one-shot Summary")
	}
	// Summary must not have mutated the pool after Settle: a second
	// Summary call yields the identical payload.
	again := ex.Summary([]byte("k"))
	if split.Digest() != again.Digest() {
		t.Error("repeated Summary after Settle diverged (Summary is not pure)")
	}
}

// applyErrors is every typed rejection Apply may return.
var applyErrors = []error{
	ErrInsufficientDeposit, ErrUnknownUser, ErrDeadlineExceeded, ErrSlippage, ErrUnsupportedKind, ErrZeroLiquidity,
	amm.ErrPriceLimit, amm.ErrZeroAmount, amm.ErrPositionNotFound, amm.ErrNotPositionOwner, amm.ErrInsufficientLiq,
	ErrDepositOverflow, amm.ErrTickNotSpaced, amm.ErrLiquidityZero, amm.ErrPriceOverflow,
	amm.ErrAmountTooLarge, amm.ErrInvalidTickRange,
}

// fuzzTxBytes is how many input bytes fuzzTx reads per transaction.
const fuzzTxBytes = 8

// fuzzTx decodes one transaction from b (fuzzTxBytes long). b[0] packs
// the kind (bits 0-2; 5 is a kind the sidechain does not run), the user
// (bits 3-4; "mallory" has no deposit), the direction (bit 5), exact-in
// (bit 6) and an expired deadline (bit 7); bit 7 of b[1] makes the
// sender "whale", whose token1 deposit sits 2^20 below 2^256. The other
// bytes size amounts
// as a byte shifted by up to 63 bits and pick ticks (aligned, unaligned
// or outside the tick range), bounds, limits and position IDs.
func fuzzTx(i int, b []byte) Tx {
	amount := func(v, shift byte) u256.Int { return u256.Shl(u256.FromUint64(uint64(v)), uint(shift%64)) }
	tick := func(v byte) int32 {
		switch v % 8 {
		case 0:
			return int32(int8(v)) * 7 // unaligned
		case 1:
			return int32(int8(v)) * 120_000 // beyond ±887272 when large
		}
		return int32(int8(v)) * 60
	}
	tx := Tx{
		ID:         fmt.Sprintf("f%d", i),
		Kind:       []gasmodel.TxKind{gasmodel.KindSwap, gasmodel.KindSwap, gasmodel.KindMint, gasmodel.KindBurn, gasmodel.KindCollect, gasmodel.KindFlash}[b[0]&7%6],
		User:       []string{"alice", "bob", "lp0", "mallory"}[b[0]>>3%4],
		ZeroForOne: b[0]&0x20 != 0,
		ExactIn:    b[0]&0x40 != 0,
		PosID:      []string{"seed", "pos-a", "pos-b", ""}[b[1]%4],
	}
	if b[1]&0x80 != 0 {
		tx.User = "whale"
	}
	if b[0]&0x80 != 0 {
		tx.DeadlineRound = 1 // Apply runs at round 2
	}
	switch tx.Kind {
	case gasmodel.KindSwap:
		tx.Amount = amount(b[2], b[3])
		if b[4]%4 == 0 {
			tx.OutBound = amount(b[5], b[4]>>2)
		}
		if b[6]%4 == 0 {
			tx.SqrtPriceLimit = amm.SqrtRatioAtTick(int32(int8(b[7])) * 600)
		}
	case gasmodel.KindMint:
		tx.TickLower, tx.TickUpper = tick(b[2]), tick(b[3])
		tx.Amount0Desired, tx.Amount1Desired = amount(b[4], b[5]), amount(b[6], b[7])
	case gasmodel.KindBurn:
		if b[2]%2 == 0 {
			tx.BurnFractionBps = uint32(b[3]) * 50
		} else {
			tx.Liquidity = amount(b[3], b[4])
		}
	case gasmodel.KindCollect:
		tx.Collect0, tx.Collect1 = amount(b[2], b[3]), amount(b[4], b[5])
		if b[6]%2 == 0 {
			tx.Collect0, tx.Collect1 = u256.Max, u256.Max
		}
	}
	return tx
}

// FuzzApply applies a byte-driven sequence of transactions to a seeded
// pool. On every transaction: no panic; a rejection is one of the typed
// errors and leaves the pool and the deposits bit-identical; and
// deposits plus reserves stay conserved exactly, per token, counted
// without wrap-around.
func FuzzApply(f *testing.F) {
	f.Add([]byte{})
	// Swaps both ways, a mint, a partial burn, a collect and a full burn.
	f.Add([]byte{
		0x60, 0, 200, 30, 1, 0, 1, 0,
		0x40, 0, 100, 32, 1, 0, 1, 0,
		0x02, 1, 0xf2, 0x0a, 255, 28, 255, 28,
		0x03, 1, 0, 100, 0, 0, 0, 0,
		0x04, 1, 1, 0, 1, 0, 0, 0,
		0x03, 1, 0, 200, 0, 0, 0, 0,
	})
	// The three-step recipe that once broke conservation: exact-out past
	// the seed position's lower tick, 1 wei back onto it, then keep
	// selling from exactly that tick.
	f.Add([]byte{
		0x28, 0, 255, 60, 1, 0, 1, 0,
		0x48, 0, 1, 0, 1, 0, 1, 0,
		0x68, 0, 255, 20, 1, 0, 1, 0,
	})
	// Credits onto a near-max deposit: a swap's output, then a burn's
	// proceeds. Both must reject with ErrDepositOverflow, not wrap.
	f.Add([]byte{
		0x60, 0x80, 200, 30, 1, 0, 1, 0,
		0x03, 0x80, 0, 100, 0, 0, 0, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newPool(t)
		seedLiquidity(t, p)
		ex := NewExecutor(1, p, map[string]Deposit{
			"alice": dep(1<<40, 1<<40), "bob": dep(1<<60, 1<<20), "lp0": dep(0, 0),
			"whale": {Amount0: u256.FromUint64(1 << 40), Amount1: u256.Sub(u256.Max, u256.FromUint64(1<<20))},
		})
		total := func() (t0, t1 *big.Int) {
			t0, t1 = ex.Pool.Reserve0.ToBig(), ex.Pool.Reserve1.ToBig()
			for _, d := range ex.deps.rows {
				t0.Add(t0, d.Amount0.ToBig())
				t1.Add(t1, d.Amount1.ToBig())
			}
			return t0, t1
		}
		want0, want1 := total()
		src := amm.AppendPool(nil, p)
		for i := 0; len(data) >= fuzzTxBytes; i++ {
			tx := fuzzTx(i, data[:fuzzTxBytes])
			data = data[fuzzTxBytes:]
			pool := amm.AppendPool(nil, ex.Pool)
			deposits := depositsOf(ex)
			if err := ex.Apply(&tx, 2); err != nil {
				typed := false
				for _, e := range applyErrors {
					typed = typed || errors.Is(err, e)
				}
				if !typed {
					t.Fatalf("tx %d %+v: untyped rejection %v", i, tx, err)
				}
				if !bytes.Equal(amm.AppendPool(nil, ex.Pool), pool) {
					t.Fatalf("tx %d %+v: rejection (%v) changed the pool", i, tx, err)
				}
				for u, d := range depositsOf(ex) {
					if was, ok := deposits[u]; !ok || was != d {
						t.Fatalf("tx %d %+v: rejection (%v) changed %s's deposit", i, tx, err, u)
					}
				}
			}
			if got0, got1 := total(); got0.Cmp(want0) != 0 || got1.Cmp(want1) != 0 {
				t.Fatalf("tx %d %+v: deposits + reserves %s/%s, want %s/%s", i, tx, got0, got1, want0, want1)
			}
		}
		// The executor evolves a copy-on-write snapshot: the pool it was
		// opened on is the epoch-start state Settle compares against.
		ex.Settle()
		if !bytes.Equal(amm.AppendPool(nil, p), src) {
			t.Fatal("Apply or Settle wrote the executor's source pool")
		}
	})
}

// TestFullBurnOfEpochStartPosition: burning all of a position the pool
// held when the epoch opened deletes it and pays its owner everything it
// was owed — principal and accrued fees — as the same burn and collect
// do on an unshared pool. The burn's write copies the snapshot's
// positions, so the executor must read the position's liquidity again
// after it: the pre-burn pointer still shows the old liquidity, which
// would pay the principal alone and leave the position alive.
func TestFullBurnOfEpochStartPosition(t *testing.T) {
	p := newPool(t)
	seedLiquidity(t, p)
	if _, err := p.Mint("pos-a", "alice", -600, 600, u256.FromUint64(1_000_000_000)); err != nil {
		t.Fatal(err)
	}
	for i, amt := range []uint64{3_000_000, 2_000_000} { // fees accrue inside pos-a's range
		if _, err := p.Swap(i == 0, true, u256.FromUint64(amt), u256.Zero); err != nil {
			t.Fatal(err)
		}
	}
	ref, _, err := amm.DecodePool(amm.AppendPool(nil, p))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Burn("pos-a", "alice", ref.Position("pos-a").Liquidity); err != nil {
		t.Fatal(err)
	}
	if pos := ref.Position("pos-a"); pos.TokensOwed0.IsZero() && pos.TokensOwed1.IsZero() {
		t.Fatal("fixture: pos-a earned no fees")
	}
	want0, want1, err := ref.Collect("pos-a", "alice", u256.Max, u256.Max)
	if err != nil {
		t.Fatal(err)
	}

	ex := NewExecutor(2, p, map[string]Deposit{"alice": dep(0, 0)})
	burn := &Tx{ID: "b", Kind: gasmodel.KindBurn, User: "alice", PosID: "pos-a", BurnFractionBps: 10_000}
	if err := ex.Apply(burn, 1); err != nil {
		t.Fatal(err)
	}
	if ex.Pool.Position("pos-a") != nil {
		t.Error("a full burn left the position alive")
	}
	if d := depositOf(ex, "alice"); !d.Amount0.Eq(want0) || !d.Amount1.Eq(want1) {
		t.Errorf("full burn paid %s/%s, want principal and fees %s/%s", d.Amount0, d.Amount1, want0, want1)
	}
	var deleted bool
	for _, e := range ex.Summary(nil).Positions {
		deleted = deleted || (e.ID == "pos-a" && e.Deleted)
	}
	if !deleted {
		t.Error("the summary does not list pos-a as deleted")
	}
}
