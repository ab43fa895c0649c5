package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"ammboost/internal/chain"
	"ammboost/internal/store"
)

// goldenV2Store is a format-v2 store image pinned byte for byte: the
// ExportSnapshot of goldenV2Run, a checkpoint at epoch 3 plus tail
// epochs 4-5.
const (
	goldenV2Store  = "../store/testdata/v2-compacted.store"
	goldenV2SHA256 = "e1cc0e93d4764ab3ff957fc72be637e9de402123cf6fe14b21484e8e38589ba2"
)

// goldenV2Cfg is the deployment the golden image was written by: seed
// 42, 6 pools, 4 shards, depth 2, compaction every 3 confirmed epochs.
func goldenV2Cfg() chain.Config {
	cfg := recoveryCfg(42, 6, 4, 2)
	cfg.CompactEvery = 3
	return cfg
}

// goldenV2Run is the deterministic run the golden image was exported
// from: 16 transactions per epoch for 5 epochs, on fsys (storeless when
// nil).
func goldenV2Run(t *testing.T, fsys store.FS) *MultiSystem {
	t.Helper()
	cfg := goldenV2Cfg()
	var ms *MultiSystem
	if fsys == nil {
		sys, err := NewMultiSystem(cfg, cfg.Users)
		if err != nil {
			t.Fatal(err)
		}
		ms = sys
	} else {
		node, err := OpenFS(fsys, "", cfg)
		if err != nil {
			t.Fatal(err)
		}
		ms = node.(*MultiSystem)
	}
	attachRecoveryTraffic(t, ms, 42, 16)
	if _, err := ms.Run(5); err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestV2StoreBytesPinned pins the on-disk format: the golden run still
// exports exactly the committed image, and a node opened on that image
// recovers boundary 5 with the storeless reference's roots and payload
// digests.
func TestV2StoreBytesPinned(t *testing.T) {
	golden, err := os.ReadFile(goldenV2Store)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(golden); hex.EncodeToString(sum[:]) != goldenV2SHA256 {
		t.Fatalf("golden image sha256 %x, want %s", sum, goldenV2SHA256)
	}

	ms := goldenV2Run(t, &store.MemFS{})
	snap, err := ms.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	ms.Close()
	if !bytes.Equal(snap, golden) {
		i := 0
		for i < len(snap) && i < len(golden) && snap[i] == golden[i] {
			i++
		}
		t.Fatalf("exported image (%d bytes) differs from the golden image (%d bytes) at byte %d",
			len(snap), len(golden), i)
	}

	ref := goldenV2Run(t, nil).Fingerprint(nil)
	fsys := &store.MemFS{}
	writeMemStore(t, fsys, golden)
	node, err := OpenFS(fsys, "", goldenV2Cfg())
	if err != nil {
		t.Fatalf("open golden image: %v", err)
	}
	defer node.Close()
	got := node.(*MultiSystem).Recovery()
	if got == nil || got.Epoch != 5 {
		t.Fatalf("recovered %+v, want boundary 5", got)
	}
	if err := ref.Diff(got.Fingerprint); err != nil {
		t.Error(err)
	}
}
