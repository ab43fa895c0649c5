package core

import (
	"errors"
	"testing"

	"ammboost/internal/chain"
	"ammboost/internal/workload"
)

// TestClaimSurfaceSinglePool pins the chain.Chain escrow surface on the
// single-pool backend: never federated, so the claimable balance is
// always zero and ClaimRefund answers ErrNoEscrow.
func TestClaimSurfaceSinglePool(t *testing.T) {
	gen := workload.New(workload.DefaultConfig(1))
	sys, err := NewSystem(smallConfig(1), gen.Users())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if a0, a1 := sys.Claimable(gen.Users()[0]); !a0.IsZero() || !a1.IsZero() {
		t.Errorf("claimable = %s/%s, want zero", a0, a1)
	}
	if _, err := sys.ClaimRefund(gen.Users()[0]); !errors.Is(err, chain.ErrNoEscrow) {
		t.Errorf("ClaimRefund = %v, want ErrNoEscrow", err)
	}
}
