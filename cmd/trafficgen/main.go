// Command trafficgen emits a synthetic AMM transaction trace with the
// paper's measured Uniswap 2023 distribution (Appendix D / Table VII),
// in CSV: id,kind,user,size_bytes,amount.
//
// Usage:
//
//	trafficgen [-n COUNT] [-seed S] [-swap P -mint P -burn P -collect P]
//
// Closed-loop multi-producer load against a live node is the benchmark
// module's job (bench/, `go run -C bench ammboost/bench`).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"ammboost/internal/workload"
)

func main() {
	n := flag.Int("n", 100_000, "number of transactions")
	seed := flag.Int64("seed", 1, "generator seed")
	swap := flag.Float64("swap", 93.19, "swap share (%)")
	mint := flag.Float64("mint", 2.14, "mint share (%)")
	burn := flag.Float64("burn", 2.38, "burn share (%)")
	collect := flag.Float64("collect", 2.27, "collect share (%)")
	flag.Parse()

	cfg := workload.DefaultConfig(*seed)
	cfg.Distribution = workload.Distribution{
		SwapPct: *swap, MintPct: *mint, BurnPct: *burn, CollectPct: *collect,
	}
	gen := workload.New(cfg)
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintln(w, "id,kind,user,size_bytes,amount")
	for i := 0; i < *n; i++ {
		tx := gen.Next()
		fmt.Fprintf(w, "%s,%s,%s,%d,%s\n", tx.ID, tx.Kind, tx.User, tx.Size(), tx.Amount)
	}
}
