package workload

import (
	"fmt"
	"math/rand"
	"time"

	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// ConstantRate calls at with every arrival instant of the paper's
// constant arrival process over rounds rounds of length rd: rho arrivals
// per round, the i-th of round r at r·rd + rd·i/rho (Section VI-A).
func ConstantRate(rho, rounds int, rd time.Duration, at func(time.Duration)) {
	for r := 0; r < rounds; r++ {
		roundStart := time.Duration(r) * rd
		for i := 0; i < rho; i++ {
			at(roundStart + time.Duration(float64(rd)*float64(i)/float64(rho)))
		}
	}
}

// EpochSwaps returns epoch's count exact-in swaps, derived from (seed,
// epoch) alone: a node restarted at any epoch boundary regenerates
// exactly the stream an uninterrupted run submitted for that epoch
// (pre-crash submissions that never executed are gone, like any
// mempool). Each swap draws its user, pool, direction and amount (in
// [1, amountCap]) in that order; IDs are "<prefix>-e<epoch>-<i>".
func EpochSwaps(seed int64, epoch uint64, count int, users, pools []string, prefix string, amountCap int) []*summary.Tx {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(epoch)))
	txs := make([]*summary.Tx, count)
	for i := range txs {
		txs[i] = &summary.Tx{
			ID:         fmt.Sprintf("%s-e%d-%d", prefix, epoch, i),
			Kind:       gasmodel.KindSwap,
			User:       users[rng.Intn(len(users))],
			PoolID:     pools[rng.Intn(len(pools))],
			ZeroForOne: rng.Intn(2) == 0,
			ExactIn:    true,
			Amount:     u256.FromUint64(uint64(rng.Intn(amountCap) + 1)),
		}
	}
	return txs
}
