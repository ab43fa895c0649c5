package workload

import (
	"reflect"
	"testing"
	"time"
)

// TestConstantRateStaysInItsRound: rho arrivals per round, evenly spaced
// and in order, every one of them before the next round starts — the
// ρ = 41 / 7 s paper rate included, where a 1 s spacing would spill
// each round's tail 34 s past its end.
func TestConstantRateStaysInItsRound(t *testing.T) {
	const rho, rounds, rd = 41, 3, 7 * time.Second
	var got []time.Duration
	ConstantRate(rho, rounds, rd, func(at time.Duration) { got = append(got, at) })
	if len(got) != rho*rounds {
		t.Fatalf("%d arrivals, want %d", len(got), rho*rounds)
	}
	for k, at := range got {
		r := k / rho
		if at < time.Duration(r)*rd || at >= time.Duration(r+1)*rd {
			t.Errorf("arrival %d at %s is outside round %d", k, at, r)
		}
		if k > 0 && at <= got[k-1] {
			t.Errorf("arrival %d at %s not after %s", k, at, got[k-1])
		}
	}
	if want := rd + rd/rho; got[rho+1] != want {
		t.Errorf("round 1's second arrival at %s, want %s", got[rho+1], want)
	}
}

// TestEpochSwapsPinned pins the recovery-aware stream: it is a function
// of (seed, epoch) alone, and these draws are the ones every restarted
// node, example and chaos sweep has always regenerated.
func TestEpochSwapsPinned(t *testing.T) {
	users := []string{"u0", "u1", "u2", "u3"}
	pools := []string{"p0", "p1", "p2"}
	a := EpochSwaps(7, 3, 4, users, pools, "cr", 800_000)
	b := EpochSwaps(7, 3, 4, users, pools, "cr", 800_000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, epoch) gave two streams")
	}
	type row struct {
		id, user, pool string
		zeroForOne     bool
		amount         uint64
	}
	want := []row{
		{"cr-e3-0", "u0", "p1", true, 117072},
		{"cr-e3-1", "u2", "p1", true, 530852},
		{"cr-e3-2", "u3", "p2", false, 333142},
		{"cr-e3-3", "u0", "p0", false, 434900},
	}
	for i, tx := range a {
		amount, _ := tx.Amount.Uint64()
		got := row{tx.ID, tx.User, tx.PoolID, tx.ZeroForOne, amount}
		if got != want[i] || !tx.ExactIn {
			t.Errorf("tx %d = %+v exactIn=%v, want %+v", i, got, tx.ExactIn, want[i])
		}
	}
	if next := EpochSwaps(7, 4, 4, users, pools, "cr", 800_000); reflect.DeepEqual(a, next) {
		t.Error("epochs 3 and 4 drew the same stream")
	}
}
