package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"ammboost/internal/chain"
	"ammboost/internal/mainchain"
	"ammboost/internal/store"
)

// The pinned store images, byte for byte: each the ExportSnapshot of a
// goldenRun, a checkpoint at epoch 3 plus tail epochs 4-5. The v2 image
// was written by format 2 (every sync part signed on its own); the v3
// image is the golden run on a block gas limit small enough that its
// epochs sync in several parts, so the proof layout is pinned too.
const (
	goldenV2Store  = "../store/testdata/v2-compacted.store"
	goldenV2SHA256 = "e1cc0e93d4764ab3ff957fc72be637e9de402123cf6fe14b21484e8e38589ba2"
	goldenV3Store  = "../store/testdata/v3-compacted.store"
	goldenV3SHA256 = "bb64353b43b3b6b4f30373084cb071c3e0d11d29573459ba1424a8007e10cc52"
)

// goldenV3GasLimit is the v3 golden run's block gas limit: a sync part
// holds at most a few of its pools' payloads.
const goldenV3GasLimit = 1_000_000

// goldenCfg is the deployment the golden images were written by: seed
// 42, 6 pools, 4 shards, depth 2, compaction every 3 confirmed epochs,
// and for v3 the small block gas limit.
func goldenCfg(v3 bool) chain.Config {
	cfg := recoveryCfg(42, 6, 4, 2)
	cfg.CompactEvery = 3
	if v3 {
		cfg.Mainchain = mainchain.DefaultConfig()
		cfg.Mainchain.GasLimit = goldenV3GasLimit
	}
	return cfg
}

// goldenRun is the deterministic run behind a golden image: 16
// transactions per epoch for epochs epochs, on fsys (storeless when nil).
func goldenRun(t *testing.T, cfg chain.Config, fsys store.FS, epochs int) *MultiSystem {
	t.Helper()
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
	if _, err := ms.Run(epochs); err != nil {
		t.Fatal(err)
	}
	return ms
}

// readGolden reads a pinned image and checks its SHA-256.
func readGolden(t *testing.T, path, sha string) []byte {
	t.Helper()
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(golden); hex.EncodeToString(sum[:]) != sha {
		t.Fatalf("%s sha256 %x, want %s", path, sum, sha)
	}
	return golden
}

// openGolden opens a node on a copy of image and checks it recovers
// boundary 5 with ref's roots and payload digests.
func openGolden(t *testing.T, image []byte, cfg chain.Config, ref chain.Fingerprint) (*MultiSystem, *store.MemFS) {
	t.Helper()
	fsys := &store.MemFS{}
	writeMemStore(t, fsys, image)
	node, err := OpenFS(fsys, "", cfg)
	if err != nil {
		t.Fatalf("open golden image: %v", err)
	}
	ms := node.(*MultiSystem)
	got := ms.Recovery()
	if got == nil || got.Epoch != 5 {
		t.Fatalf("recovered %+v, want boundary 5", got)
	}
	if err := ref.Diff(got.Fingerprint); err != nil {
		t.Error(err)
	}
	return ms, fsys
}

// TestV2StoreBytesPinned: a format-2 image still opens. Its per-part
// signed records replay to the storeless reference's roots and payload
// digests; the header becomes format 3 before anything is appended; the
// node resumes, appending format-3 records beside the format-2 ones, to
// the uninterrupted run's epochs 6-7; and the mixed file reopens.
func TestV2StoreBytesPinned(t *testing.T) {
	golden := readGolden(t, goldenV2Store, goldenV2SHA256)
	cfg := goldenCfg(false)
	ms, fsys := openGolden(t, golden, cfg, goldenRun(t, cfg, nil, 5).Fingerprint(nil))
	data, err := fsys.ReadFile(store.FileName)
	if err != nil {
		t.Fatal(err)
	}
	// The 44-byte header frame: length, type, version at byte 5, then the
	// fingerprint and flags; its CRC (the frame's last 4 bytes) moves with
	// the version.
	const headerFrame = 44
	if v := binary.BigEndian.Uint16(data[5:]); v != store.FormatVersion ||
		!bytes.Equal(data[7:headerFrame-4], golden[7:headerFrame-4]) || !bytes.Equal(data[headerFrame:], golden[headerFrame:]) {
		t.Errorf("opened image: header version %d, want %d with the same fingerprint, flags and records",
			v, store.FormatVersion)
	}
	attachRecoveryTraffic(t, ms, 42, 16)
	if _, err := ms.Run(7); err != nil {
		t.Fatalf("resume from the v2 image: %v", err)
	}
	if err := goldenRun(t, cfg, nil, 7).Fingerprint(nil).Diff(ms.Fingerprint(nil)); err != nil {
		t.Errorf("resumed run: %v", err)
	}
	ms.Close()
	node, err := OpenFS(fsys, "", cfg)
	if err != nil {
		t.Fatalf("reopen the mixed-format store: %v", err)
	}
	defer node.Close()
	if got := node.(*MultiSystem).Recovery(); got == nil || got.Epoch != 7 {
		t.Fatalf("mixed-format store recovered %+v, want boundary 7", got)
	}
}

// TestV3StoreBytesPinned pins the on-disk format: the v3 golden run
// exports exactly the committed image, and a node opened on that image
// recovers boundary 5 with the storeless reference's roots and payload
// digests. On a mismatch it leaves the exported image in the system temp
// directory: after a deliberate format change, that file replaces the
// golden image and its SHA-256 is pinned above.
func TestV3StoreBytesPinned(t *testing.T) {
	cfg := goldenCfg(true)
	ms := goldenRun(t, cfg, &store.MemFS{}, 5)
	snap, err := ms.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	ms.Close()
	golden := readGolden(t, goldenV3Store, goldenV3SHA256)
	if !bytes.Equal(snap, golden) {
		i := 0
		for i < len(snap) && i < len(golden) && snap[i] == golden[i] {
			i++
		}
		out := filepath.Join(os.TempDir(), "v3-compacted.store")
		werr := os.WriteFile(out, snap, 0o644)
		t.Fatalf("exported image (%d bytes, sha256 %x) differs from the golden image (%d bytes) at byte %d; written to %s (%v)",
			len(snap), sha256.Sum256(snap), len(golden), i, out, werr)
	}
	node, _ := openGolden(t, golden, cfg, goldenRun(t, cfg, nil, 5).Fingerprint(nil))
	node.Close()
}
