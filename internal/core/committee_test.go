package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ammboost/internal/chain"
)

// committeeKeyCase is a committee provisioned at a fixed (seed, epoch)
// and what it must deal: the group key's SHA-256 and share 1's value.
type committeeKeyCase struct {
	seed      int64
	size      int
	epoch     uint64
	pkSHA256  string
	share1Hex string
	threshold int
}

// keySystem builds a node whose chain seed and miner registry derive
// from seed, as every run's do.
func keySystem(t *testing.T, seed int64, size int, fidelity chain.ConsensusFidelity) *MultiSystem {
	t.Helper()
	cfg := chain.Config{Seed: seed, NumPools: 1, CommitteeSize: size, ConsensusFidelity: fidelity}
	sys, err := NewMultiSystem(cfg, []string{"u-0"})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func pkDigest(b []byte) string {
	d := sha256.Sum256(b)
	return hex.EncodeToString(d[:])
}

// TestCommitteeKeysPinned pins the model path's committee keys: the
// group key and first share that provisionCommittee deals at fixed
// (seed, epoch) on the paper's committee sizes. Dealing randomness must
// be a pure function of the run seed and the epoch; a dealer that draws
// anything else (the wall clock, a shared stream) moves every key.
func TestCommitteeKeysPinned(t *testing.T) {
	for _, tc := range []committeeKeyCase{
		{seed: 1, size: 64, epoch: 1, threshold: 42,
			pkSHA256:  "daf51f3a1865994311e2706b91f9efb1b784d6dd016e09343da78566f3e65027",
			share1Hex: "20da73367eabe2e88217a8226f2e99e8b8c40b139331edddc26b32dfe95927a6"},
		{seed: 1, size: 64, epoch: 9, threshold: 42,
			pkSHA256:  "f217d6f7194deac50fde87d9976d66a76323e5c65022e929740ea948d7cde7b9",
			share1Hex: "516919bf2bba7a401c3075f4ff26d01d2e62b79e46cf75ec722c2a877e42a6f5"},
		{seed: 7, size: 20, epoch: 3, threshold: 14,
			pkSHA256:  "2bd03b4574c2768d5a33745d2a38be82d03a5d487a63f7470c01628726d1f056",
			share1Hex: "717973cb1a4442eafdaa7a85eb481f55ba41558581f591206109ae844b39c7a0"},
	} {
		sys := keySystem(t, tc.seed, tc.size, chain.FidelityModel)
		ck, err := provisionCommittee(sys.registry, sys.chainSeed, tc.epoch, tc.size)
		if err != nil {
			t.Fatal(err)
		}
		pk := pkDigest(ck.group.PK.Bytes())
		share := ck.signer.shares[0]
		if ck.group.Threshold != tc.threshold || ck.group.N != tc.size {
			t.Errorf("seed %d epoch %d: threshold %d of %d, want %d of %d", tc.seed, tc.epoch, ck.group.Threshold, ck.group.N, tc.threshold, tc.size)
		}
		if pk != tc.pkSHA256 {
			t.Errorf("seed %d epoch %d: group key sha256 %s, want %s", tc.seed, tc.epoch, pk, tc.pkSHA256)
		}
		if share.Index != 1 || share.Value.Text(16) != tc.share1Hex {
			t.Errorf("seed %d epoch %d: share %d = %s, want share 1 = %s", tc.seed, tc.epoch, share.Index, share.Value.Text(16), tc.share1Hex)
		}
	}
}

// TestLiveCommitteeKeyPinned pins the live path's keys: every replica
// liveConsensus.beginEpoch keys at a fixed (seed, epoch) holds the same
// group key, and that key is a constant.
func TestLiveCommitteeKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		epoch    uint64
		pkSHA256 string
	}{
		{seed: 1, epoch: 1, pkSHA256: "370b9b7e0a9eb3f88655016b713b04c52ae4db30352610a79c06a69d34728d69"},
		{seed: 7, epoch: 4, pkSHA256: "6fc63c82086b1820ff9e4a9a9eeaebabaff5ce58600add413500b3f1346c07cf"},
	} {
		sys := keySystem(t, tc.seed, 8, chain.FidelityLive)
		if err := sys.live.beginEpoch(tc.epoch); err != nil {
			t.Fatal(err)
		}
		want := sys.live.replicas[0].Group()
		for i, r := range sys.live.replicas {
			if g := r.Group(); !g.PK.Equal(want.PK) || g.Threshold != want.Threshold || g.N != want.N {
				t.Fatalf("seed %d epoch %d: replica %d holds another group key", tc.seed, tc.epoch, i)
			}
		}
		pk := pkDigest(want.PK.Bytes())
		if pk != tc.pkSHA256 {
			t.Errorf("seed %d epoch %d: live group key sha256 %s, want %s", tc.seed, tc.epoch, pk, tc.pkSHA256)
		}
		sys.live.stopReplicas()
	}
}
