package mainchain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"ammboost/internal/binenc"
	"ammboost/internal/crypto/tsig"
	"ammboost/internal/summary"
)

// EncodeState serializes the bank's replay state at its current sync
// boundary: per-pool reserves and positions, the retained summary-root
// and group-key bookkeeping, and the sync horizon. The encoding is
// deterministic (all maps sorted), so two banks in the same state
// produce identical bytes. It is the store checkpoint's bank blob — a
// restored bank continues verifying sync parts from LastSyncedEpoch+1
// exactly as the uninterrupted bank would.
//
// partsApplied is deliberately absent: checkpoints cut at confirmed
// epochs, where no partial later-epoch parts exist (the mainchain's
// dependency chain forces epoch e+1's parts into strictly later blocks).
func (b *MultiBank) EncodeState() []byte {
	buf := make([]byte, 0, 1024)
	buf = binary.BigEndian.AppendUint64(buf, b.LastSyncedEpoch)
	buf = binary.BigEndian.AppendUint64(buf, b.compacted)

	keyEpochs := make([]uint64, 0, len(b.groupKeys))
	for e := range b.groupKeys {
		keyEpochs = append(keyEpochs, e)
	}
	sort.Slice(keyEpochs, func(i, j int) bool { return keyEpochs[i] < keyEpochs[j] })
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(keyEpochs)))
	for _, e := range keyEpochs {
		k := b.groupKeys[e]
		buf = binary.BigEndian.AppendUint64(buf, e)
		buf = append(buf, k.PK.Bytes()...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(k.Threshold))
		buf = binary.BigEndian.AppendUint32(buf, uint32(k.N))
	}

	rootEpochs := make([]uint64, 0, len(b.SummaryRoots))
	for e := range b.SummaryRoots {
		rootEpochs = append(rootEpochs, e)
	}
	sort.Slice(rootEpochs, func(i, j int) bool { return rootEpochs[i] < rootEpochs[j] })
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rootEpochs)))
	for _, e := range rootEpochs {
		r := b.SummaryRoots[e]
		buf = binary.BigEndian.AppendUint64(buf, e)
		buf = append(buf, r[:]...)
	}

	syncedEpochs := make([]uint64, 0, len(b.synced))
	for e := range b.synced {
		if b.synced[e] {
			syncedEpochs = append(syncedEpochs, e)
		}
	}
	sort.Slice(syncedEpochs, func(i, j int) bool { return syncedEpochs[i] < syncedEpochs[j] })
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(syncedEpochs)))
	for _, e := range syncedEpochs {
		buf = binary.BigEndian.AppendUint64(buf, e)
	}

	poolIDs := make([]string, 0, len(b.Reserves))
	for id := range b.Reserves {
		poolIDs = append(poolIDs, id)
	}
	sort.Strings(poolIDs)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(poolIDs)))
	for _, id := range poolIDs {
		r := b.Reserves[id]
		buf = binenc.AppendString(buf, id)
		buf = binenc.AppendU256(buf, r.Reserve0)
		buf = binenc.AppendU256(buf, r.Reserve1)
		positions := b.Positions[id]
		posIDs := make([]string, 0, len(positions))
		for pid := range positions {
			posIDs = append(posIDs, pid)
		}
		sort.Strings(posIDs)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(posIDs)))
		for _, pid := range posIDs {
			e := positions[pid]
			buf = binenc.AppendString(buf, e.ID)
			buf = binenc.AppendString(buf, e.Owner)
			buf = binary.BigEndian.AppendUint32(buf, uint32(e.TickLower))
			buf = binary.BigEndian.AppendUint32(buf, uint32(e.TickUpper))
			buf = binenc.AppendU256(buf, e.Liquidity)
			buf = binenc.AppendU256(buf, e.Fees0)
			buf = binenc.AppendU256(buf, e.Fees1)
		}
	}
	return buf
}

// ErrBadBankState wraps every reason RestoreState refuses a blob.
var ErrBadBankState = errors.New("multibank: bad bank state")

// badState is a RestoreState refusal.
func badState(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBadBankState}, args...)...)
}

// RestoreState rebuilds the bank from an EncodeState blob, replacing the
// genesis state NewMultiBank installed. The blob is NOT trusted on its
// own: the caller must anchor it — ammBoost's recovery re-derives the
// boundary committee from the seed and requires the restored bank's next
// group key to match, then replays the tail sync-part log through the
// full verification chain. Pools in the blob must be registered
// (deployment fingerprints pin the pool set, so a mismatch is
// corruption, not skew). Every refusal wraps ErrBadBankState (an
// unregistered pool also ErrUnknownBankPool) and leaves the bank as it
// was.
func (b *MultiBank) RestoreState(data []byte) error {
	d := binenc.NewCursor(data)
	lastSynced := d.U64()
	compacted := d.U64()

	nKeys := int(d.U32())
	if d.Err() == nil && nKeys > d.Remaining()/80 {
		return badState("group key count %d", nKeys)
	}
	groupKeys := make(map[uint64]tsig.GroupKey, nKeys)
	for i := 0; i < nKeys && d.Err() == nil; i++ {
		e := d.U64()
		pkBytes := d.Take(64)
		if pkBytes == nil {
			break
		}
		pk, err := tsig.PointFromBytes(pkBytes)
		if err != nil {
			return badState("epoch %d group key: %w", e, err)
		}
		groupKeys[e] = tsig.GroupKey{PK: pk, Threshold: int(d.U32()), N: int(d.U32())}
	}

	nRoots := int(d.U32())
	if d.Err() == nil && nRoots > d.Remaining()/40 {
		return badState("summary root count %d", nRoots)
	}
	roots := make(map[uint64][32]byte, nRoots)
	for i := 0; i < nRoots && d.Err() == nil; i++ {
		e := d.U64()
		var r [32]byte
		d.Read(r[:])
		roots[e] = r
	}

	nSynced := int(d.U32())
	if d.Err() == nil && nSynced > d.Remaining()/8 {
		return badState("synced count %d", nSynced)
	}
	synced := make(map[uint64]bool, nSynced)
	for i := 0; i < nSynced && d.Err() == nil; i++ {
		synced[d.U64()] = true
	}

	nPools := int(d.U32())
	if d.Err() == nil && nPools > d.Remaining()/8 {
		return badState("pool count %d", nPools)
	}
	reserves := make(map[string]PoolReserves, nPools)
	positions := make(map[string]map[string]summary.PositionEntry, nPools)
	for i := 0; i < nPools && d.Err() == nil; i++ {
		id := d.Str()
		if _, ok := b.Reserves[id]; !ok && d.Err() == nil {
			return badState("%w: pool %s", ErrUnknownBankPool, id)
		}
		reserves[id] = PoolReserves{Reserve0: d.U256(), Reserve1: d.U256()}
		nPos := int(d.U32())
		if d.Err() == nil && nPos > d.Remaining()/113 {
			return badState("position count %d", nPos)
		}
		pm := make(map[string]summary.PositionEntry, nPos)
		for j := 0; j < nPos && d.Err() == nil; j++ {
			e := summary.PositionEntry{
				ID:        d.Str(),
				Owner:     d.Str(),
				TickLower: int32(d.U32()),
				TickUpper: int32(d.U32()),
				Liquidity: d.U256(),
				Fees0:     d.U256(),
				Fees1:     d.U256(),
			}
			pm[e.ID] = e
		}
		positions[id] = pm
	}
	if d.Err() != nil {
		return badState("%w", d.Err())
	}
	if d.Remaining() != 0 {
		return badState("%d trailing bytes", d.Remaining())
	}

	// Pools absent from the blob were never synced and keep genesis state.
	for id, r := range reserves {
		b.Reserves[id] = r
		b.Positions[id] = positions[id]
	}
	b.SummaryRoots = roots
	b.groupKeys = groupKeys
	b.synced = synced
	b.partsApplied = make(map[uint64]map[int]bool)
	b.LastSyncedEpoch = lastSynced
	b.compacted = compacted
	return nil
}

// NextGroupKey returns the verification key registered for epoch
// LastSyncedEpoch+1 — the trust anchor a checkpoint restore compares
// against the committee re-derived from the chain seed.
func (b *MultiBank) NextGroupKey() (tsig.GroupKey, bool) {
	k, ok := b.groupKeys[b.LastSyncedEpoch+1]
	return k, ok
}
