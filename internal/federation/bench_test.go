package federation

import (
	"fmt"
	"testing"
)

// BenchmarkFederation measures the host cost of one full federated run
// at K=1 (a lone tenant on the shared mainchain) versus K=4 (four
// sidechains contending for the packer's block gas, plus one cross-chain
// transfer exercising the escrow). The shared chain and common virtual
// clock should cost ~linear in K; a k=4 cell far above 4x the k=1 cell
// points at lock contention, per-member rescans of the shared block
// history, and the like.
func BenchmarkFederation(b *testing.B) {
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := Config{Epochs: 3}
				for m := 0; m < k; m++ {
					id := fmt.Sprintf("bench-%c", 'a'+m)
					cfg.Nodes = append(cfg.Nodes, member(id, int64(m+1)))
				}
				if k > 1 {
					cfg.Transfers = []Transfer{{
						ID: "bx-1", FromChain: "bench-a", ToChain: "bench-b",
						User: xferUser, Amount0: amt(), Amount1: amt(), SubmitAtEpoch: 1,
					}}
				}
				f, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if k > 1 {
					if _, err := f.Node("bench-a").SubmitDeposit(xferUser, 1, amt(), amt()); err != nil {
						b.Fatal(err)
					}
				}
				res, err := f.Run()
				if err != nil {
					b.Fatal(err)
				}
				for _, nr := range res.Nodes {
					if nr.Err != nil {
						b.Fatalf("member %s: %v", nr.ChainID, nr.Err)
					}
				}
			}
		})
	}
}
