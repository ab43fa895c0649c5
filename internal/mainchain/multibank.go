package mainchain

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"ammboost/internal/crypto/merkle"
	"ammboost/internal/crypto/tsig"
	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// MultiBank errors.
var (
	ErrUnknownBankPool = errors.New("multibank: pool not registered")
	ErrNoSummaryRoot   = errors.New("multibank: sync carries no summary root")
	ErrBadSyncPart     = errors.New("multibank: sync part out of range or repeated")
	ErrBadSyncProof    = errors.New("multibank: sync part's inclusion proof has the wrong length")
	ErrRootMismatch    = errors.New("multibank: sync parts disagree on summary root")
)

// MultiBankAddress is the on-chain account of the multi-pool bank.
const MultiBankAddress = "multibank"

// BankAddressFor returns the on-chain account a chain's bank deploys at:
// the shared default for the single-tenant case (empty chain ID) and a
// chain-scoped account ("multibank/<chainID>") under federation, where K
// sidechains each deploy their own bank on one shared mainchain.
func BankAddressFor(chainID string) string {
	if chainID == "" {
		return MultiBankAddress
	}
	return MultiBankAddress + "/" + chainID
}

// PoolReserves is one pool's stored balance pair.
type PoolReserves struct {
	Reserve0 u256.Int
	Reserve1 u256.Int
}

// MultiBank is the multi-pool TokenBank variant backing internal/engine
// deployments: it stores per-pool reserves and liquidity positions,
// verifies TSQC-authenticated epoch syncs whose payloads cover the pools
// the epoch changed (an idle pool's stored state simply carries over),
// and records each epoch's folded summary root over every registered pool
// so any pool's end state can be proven against a single on-chain
// commitment. On its own it models custody at the accounting level only;
// TokenBank embeds it and adds the paper's ERC20 custody.
type MultiBank struct {
	// Reserves[poolID] mirrors the canonical pool balances.
	Reserves map[string]PoolReserves
	// Positions[poolID][positionID] is the stored position list.
	Positions map[string]map[string]summary.PositionEntry
	// SummaryRoots[epoch] is the folded multi-pool root from the sync.
	SummaryRoots map[uint64][32]byte

	groupKeys map[uint64]tsig.GroupKey
	synced    map[uint64]bool
	// partsApplied[epoch] tracks which chunks of a multi-part sync have
	// landed; the epoch is synced once all parts are in.
	partsApplied map[uint64]map[int]bool
	// LastSyncedEpoch is the highest epoch whose summary was fully applied.
	LastSyncedEpoch uint64

	// stats counts sync-part executions; see SyncStats.
	stats SyncStats

	// Retain, when > 0, compacts per-epoch bookkeeping (group keys,
	// synced markers, summary roots) older than LastSyncedEpoch-Retain
	// each time an epoch completes, bounding the bank's footprint on
	// long-running deployments. 0 keeps the full history. Replaying a
	// compacted epoch's sync still fails deterministically — its group
	// key is gone, so verification reports an unknown epoch key.
	Retain int
	// compacted is the highest epoch already compacted away.
	compacted uint64

	// addr is the on-chain account the bank answers to; empty means the
	// single-tenant default (MultiBankAddress). Federated deployments give
	// each chain's bank its own account via WithAddress so K banks coexist
	// on one shared mainchain with independent accounting and retention.
	addr string

	// custody is the token holder that pays a part's payouts out (the
	// embedding TokenBank); nil when custody is accounting only.
	custody custody
}

// custody holds the pools' tokens: applySync asks cover before it writes
// anything, so a part whose payouts the bank cannot pay is refused whole,
// and pay once the part applied.
type custody interface {
	cover(a *MultiSyncArgs) error
	pay(a *MultiSyncArgs)
}

// NewMultiBank deploys the bank over the registered pool IDs with the
// epoch-1 committee key, mirroring the paper's SystemSetup.
func NewMultiBank(poolIDs []string, genesisKey tsig.GroupKey) *MultiBank {
	b := &MultiBank{
		Reserves:     make(map[string]PoolReserves, len(poolIDs)),
		Positions:    make(map[string]map[string]summary.PositionEntry, len(poolIDs)),
		SummaryRoots: make(map[uint64][32]byte),
		groupKeys:    map[uint64]tsig.GroupKey{1: genesisKey},
		synced:       make(map[uint64]bool),
		partsApplied: make(map[uint64]map[int]bool),
	}
	for _, id := range poolIDs {
		b.Reserves[id] = PoolReserves{}
		b.Positions[id] = make(map[string]summary.PositionEntry)
	}
	return b
}

// WithAddress rebinds the bank to a chain-scoped on-chain account (see
// BankAddressFor) and returns the bank. Must be called before Deploy.
func (b *MultiBank) WithAddress(addr string) *MultiBank {
	b.addr = addr
	return b
}

// Name implements Contract.
func (b *MultiBank) Name() string {
	if b.addr != "" {
		return b.addr
	}
	return MultiBankAddress
}

// MultiSyncArgs carries one chunk of an epoch's per-pool summaries, the
// folded summary root over ALL pools, the issuing committee's TSQC
// signature, and the next committee's verification key. An epoch whose
// total payload would exceed a block's gas budget splits into NumParts
// chunks; the epoch counts as synced once every part has been applied.
//
// The committee signs an epoch once (BindSyncParts): the signature covers
// the epoch digest, which binds the epoch, NumParts, SummaryRoot, NextKey
// and the root of a Merkle tree over the parts' PartDigests. Each part
// carries that one Sig and its own sibling path, so the bank checks every
// part on its own.
type MultiSyncArgs struct {
	Epoch       uint64
	Part        int // 1-based chunk index
	NumParts    int
	Payloads    []*summary.SyncPayload // this chunk's pools, PoolID set
	SummaryRoot [32]byte
	// Sig is the committee's signature over the epoch digest, the same on
	// every part of the epoch.
	Sig     tsig.Point
	NextKey tsig.GroupKey
	// Proof is the part's sibling path, leaf Part-1 of NumParts, in the
	// Merkle tree over the epoch's PartDigests.
	Proof [][32]byte
	// V2 marks a part read from a format-v2 store record, signed on its own
	// PartDigest before an epoch was signed once. Only the store's v2
	// decoder sets it: ReplaySync verifies such a part against its own
	// signature, and on-chain execution refuses it.
	V2 bool
}

// PartDigest commits to one part: the folded summary root bound to the
// epoch and the chunk (each payload's own digest commits to its pool).
// It is the part's leaf in the epoch's Merkle tree.
func (a *MultiSyncArgs) PartDigest() [32]byte {
	digests := make([][32]byte, len(a.Payloads))
	for i, p := range a.Payloads {
		digests[i] = p.Digest()
	}
	return a.partDigest(digests)
}

// partDigest is PartDigest over the payloads' digests, in order.
func (a *MultiSyncArgs) partDigest(payloadDigests [][32]byte) [32]byte {
	acc := make([]byte, 0, 24+32+32*len(payloadDigests))
	acc = binary.BigEndian.AppendUint64(acc, a.Epoch)
	acc = binary.BigEndian.AppendUint64(acc, uint64(a.Part))
	acc = binary.BigEndian.AppendUint64(acc, uint64(a.NumParts))
	acc = append(acc, a.SummaryRoot[:]...)
	for _, d := range payloadDigests {
		acc = append(acc, d[:]...)
	}
	return sha256.Sum256(acc)
}

// syncEpochTag separates the epoch digest from every other digest a
// committee signs.
const syncEpochTag = "ammboost/multibank/sync-epoch"

// epochDigest is what the committee signs once per epoch: the epoch, its
// part count, the summary root, the next committee's key (point,
// threshold and size) and partsRoot, the root over the parts'
// PartDigests.
func (a *MultiSyncArgs) epochDigest(partsRoot [32]byte) [32]byte {
	acc := make([]byte, 0, len(syncEpochTag)+16+32+64+16+32)
	acc = append(acc, syncEpochTag...)
	acc = binary.BigEndian.AppendUint64(acc, a.Epoch)
	acc = binary.BigEndian.AppendUint64(acc, uint64(a.NumParts))
	acc = append(acc, a.SummaryRoot[:]...)
	acc = append(acc, a.NextKey.PK.Bytes()...)
	acc = binary.BigEndian.AppendUint64(acc, uint64(a.NextKey.Threshold))
	acc = binary.BigEndian.AppendUint64(acc, uint64(a.NextKey.N))
	acc = append(acc, partsRoot[:]...)
	return sha256.Sum256(acc)
}

// SignedDigest is the digest a's Sig must verify against. For a part
// signed once per epoch it is the epoch digest over the root a's Proof
// folds to from leaf Part-1, the path's directions taken from that index;
// a Proof that is not merkle.PathLen(NumParts) long is ErrBadSyncProof.
// A V2 part's signature covers its own PartDigest.
func (a *MultiSyncArgs) SignedDigest() ([32]byte, error) {
	if a.V2 {
		return a.PartDigest(), nil
	}
	if want := merkle.PathLen(a.NumParts); len(a.Proof) != want {
		return [32]byte{}, fmt.Errorf("%w: part %d/%d carries %d proof hashes, want %d",
			ErrBadSyncProof, a.Part, a.NumParts, len(a.Proof), want)
	}
	leaf := a.PartDigest()
	return a.epochDigest(merkle.FoldPath(merkle.HashLeaf32(leaf), a.Part-1, a.Proof)), nil
}

// BindSyncParts binds one epoch's parts to a single signature: it sets
// every part's Proof to its path in the Merkle tree over the parts'
// PartDigests and returns the epoch digest the committee signs. The
// parts must share Epoch, SummaryRoot and NextKey, with Part = i+1 and
// NumParts = len(parts). payloadDigests, when not nil, holds
// parts[i].Payloads' digests in order, so they are not hashed again.
func BindSyncParts(parts []*MultiSyncArgs, payloadDigests [][][32]byte) [32]byte {
	leaves := make([][]byte, len(parts))
	for i, a := range parts {
		var d [32]byte
		if payloadDigests != nil {
			d = a.partDigest(payloadDigests[i])
		} else {
			d = a.PartDigest()
		}
		leaves[i] = d[:]
	}
	tree := merkle.New(leaves)
	for i, a := range parts {
		steps, _ := tree.Prove(i)
		a.Proof = make([][32]byte, len(steps))
		for k, step := range steps {
			a.Proof[k] = step.Hash
		}
	}
	return parts[0].epochDigest(tree.Root())
}

// SyncGas is a sync part's gas bill, accumulated pool by pool. It is the
// one place a part's gas is computed: the chunker sizes parts by it, the
// sender declares it as the transaction's gas limit, and applySync
// charges it.
type SyncGas struct {
	// Storage is the pools' storage writes: payout entries, live position
	// entries, cleared positions and each pool's balance words.
	Storage uint64
	// Bytes is the pools' calldata (Σ MainchainBytes), which the TSQC
	// check hashes.
	Bytes int
	// ProofHashes is the part's inclusion-proof length: 32 calldata bytes
	// and one node hash each.
	ProofHashes int
}

// Add accounts one pool's payload.
func (g *SyncGas) Add(p *summary.SyncPayload) {
	g.Storage += uint64(len(p.Payouts)) * gasmodel.PayoutEntryGas
	for _, e := range p.Positions {
		if e.Deleted {
			g.Storage += gasmodel.SstoreClearGas
		} else {
			g.Storage += uint64(gasmodel.PositionEntryWords) * gasmodel.SstoreWordGas
		}
	}
	g.Storage += uint64(gasmodel.PoolBalanceWords) * gasmodel.SstoreWordGas
	g.Bytes += p.MainchainBytes()
}

// Calldata is the part's calldata bytes: the pools' and the proof's.
func (g SyncGas) Calldata() int { return g.Bytes + 32*g.ProofHashes }

// Auth is charged before the TSQC check: the transaction's intrinsic gas,
// the signature verification over the part's calldata, and one node hash
// per proof level.
func (g SyncGas) Auth() uint64 {
	return gasmodel.TxBaseGas + gasmodel.SyncAuthGas(g.Calldata()) +
		uint64(g.ProofHashes)*gasmodel.KeccakGas(64)
}

// Bill is charged after every check and before any write: the pools'
// storage, the summary-root word and — on the part that completes the
// epoch — the next committee key's registration.
func (g SyncGas) Bill(completing bool) uint64 {
	bill := g.Storage + gasmodel.SstoreGas(32)
	if completing {
		bill += gasmodel.SstoreGas(gasmodel.ABIGroupKeyBytes)
	}
	return bill
}

// Declared is the gas limit a sender declares for the part. Which part
// lands last is the chain's decision, not the sender's, so every part
// declares the key registration: declared == used on the completing part
// and exceeds it by SstoreGas(ABIGroupKeyBytes) on the others.
func (g SyncGas) Declared() uint64 { return g.Auth() + g.Bill(true) }

// Gas returns the part's gas bill.
func (a *MultiSyncArgs) Gas() SyncGas {
	g := SyncGas{ProofHashes: len(a.Proof)}
	for _, p := range a.Payloads {
		g.Add(p)
	}
	return g
}

// Execute implements Contract.
func (b *MultiBank) Execute(env *Env, method string, args any) error {
	switch method {
	case "sync":
		a, ok := args.(*MultiSyncArgs)
		if !ok {
			return ErrBadArgs
		}
		return b.applySync(env, a)
	default:
		return fmt.Errorf("%w: multibank has no method %q", ErrBadArgs, method)
	}
}

// SyncStats counts what the bank did with the sync parts handed to it.
// The chain packs a part by its declared gas and so executes it once:
// PartExecs/PartsApplied is the re-execution factor (1.0 unless parts
// were rejected), and SigVerifies equals PartExecs less the executions
// refused before the TSQC check.
type SyncStats struct {
	// PartExecs is every sync-part execution started, on-chain or replayed.
	PartExecs uint64
	// PartsApplied is the executions that applied their part.
	PartsApplied uint64
	// SigVerifies is the TSQC verifications computed (one scalar
	// multiplication each).
	SigVerifies uint64
}

// SyncStats returns the bank's sync-part execution counters.
func (b *MultiBank) SyncStats() SyncStats { return b.stats }

// applySync is the one implementation of the sync verification chain —
// epoch key lookup, part framing and proof length, TSQC signature over
// the epoch digest, part bookkeeping, root consistency, payout coverage,
// payload application, completion — used by on-chain execution
// (env != nil, gas charged) and by crash-recovery replay (env == nil: the
// original execution already paid the gas). One body, so the two paths cannot
// drift: a check added here guards both. Each part is checked on its own:
// nothing a sibling part proved is trusted.
func (b *MultiBank) applySync(env *Env, a *MultiSyncArgs) error {
	b.stats.PartExecs++
	key, ok := b.groupKeys[a.Epoch]
	if !ok {
		return fmt.Errorf("%w: epoch %d", ErrUnknownEpochKey, a.Epoch)
	}
	if a.V2 && env != nil {
		return fmt.Errorf("%w: a format-v2 part replays only from a store", ErrBadSyncPart)
	}
	if a.Part < 1 || a.Part > a.NumParts {
		return fmt.Errorf("%w: part %d/%d", ErrBadSyncPart, a.Part, a.NumParts)
	}
	// Idle pools send nothing, so an epoch no pool changed in syncs as one
	// part with no payloads. A chunker never emits such a part beside
	// others, so a multi-part epoch's payload-free part is refused.
	if len(a.Payloads) == 0 && a.NumParts > 1 {
		return fmt.Errorf("%w: part %d/%d carries no payloads", ErrBadArgs, a.Part, a.NumParts)
	}
	if a.SummaryRoot == ([32]byte{}) {
		return ErrNoSummaryRoot
	}
	digest, err := a.SignedDigest()
	if err != nil {
		return err
	}
	var gas SyncGas
	if env != nil {
		gas = a.Gas()
		if err := env.Gas.Charge(gas.Auth()); err != nil {
			return err
		}
	}
	b.stats.SigVerifies++
	if err := tsig.Verify(key, digest[:], a.Sig); err != nil {
		return ErrBadSyncSignature
	}
	if b.synced[a.Epoch] {
		return fmt.Errorf("%w: epoch %d", ErrEpochAlreadySync, a.Epoch)
	}
	applied := b.partsApplied[a.Epoch]
	if applied == nil {
		applied = make(map[int]bool)
		b.partsApplied[a.Epoch] = applied
	}
	if applied[a.Part] {
		return fmt.Errorf("%w: part %d already applied", ErrBadSyncPart, a.Part)
	}
	if stored, ok := b.SummaryRoots[a.Epoch]; ok && stored != a.SummaryRoot {
		return ErrRootMismatch
	}
	// Validate every payload's pool — and, on-chain, charge the full
	// storage bill — before mutating ANY state. The chain does not roll
	// back contract writes when a transaction runs out of gas (and
	// re-executes an undeclared one from scratch in the next block), so a
	// sync part must be atomic: either it applies completely, or it leaves
	// no trace.
	completing := len(applied)+1 == a.NumParts
	for _, p := range a.Payloads {
		if _, ok := b.Positions[p.PoolID]; !ok {
			return fmt.Errorf("%w: %s", ErrUnknownBankPool, p.PoolID)
		}
	}
	if b.custody != nil {
		if err := b.custody.cover(a); err != nil {
			return err
		}
	}
	if env != nil {
		if err := env.Gas.Charge(gas.Bill(completing)); err != nil {
			return err
		}
	}
	for _, p := range a.Payloads {
		b.applyPoolPayload(p)
	}
	if b.custody != nil {
		b.custody.pay(a)
	}
	b.stats.PartsApplied++
	applied[a.Part] = true
	b.SummaryRoots[a.Epoch] = a.SummaryRoot
	if !completing {
		return nil // epoch completes when the remaining parts land
	}
	b.complete(a)
	return nil
}

// complete finalizes an epoch whose last sync part just applied:
// registers the next committee key, advances the sync horizon, and
// compacts bookkeeping behind the retention window.
func (b *MultiBank) complete(a *MultiSyncArgs) {
	b.synced[a.Epoch] = true
	delete(b.partsApplied, a.Epoch)
	if a.Epoch > b.LastSyncedEpoch {
		b.LastSyncedEpoch = a.Epoch
	}
	b.groupKeys[a.Epoch+1] = a.NextKey
	if b.Retain > 0 && b.LastSyncedEpoch > uint64(b.Retain) {
		for e := b.compacted + 1; e <= b.LastSyncedEpoch-uint64(b.Retain); e++ {
			delete(b.groupKeys, e)
			delete(b.synced, e)
			delete(b.SummaryRoots, e)
		}
		b.compacted = b.LastSyncedEpoch - uint64(b.Retain)
	}
}

// ReplaySync re-applies a persisted sync part during crash recovery:
// the full verification chain (applySync) runs exactly as on-chain
// execution would, so a recovered bank's state is re-derived from
// authenticated records rather than trusted from disk; only gas
// accounting is skipped (the original execution already paid it).
// Parts must replay in their original submission order.
func (b *MultiBank) ReplaySync(a *MultiSyncArgs) error {
	return b.applySync(nil, a)
}

// applyPoolPayload writes one pool's synced state; gas was charged up
// front by applySync, so application cannot fail partway.
func (b *MultiBank) applyPoolPayload(p *summary.SyncPayload) {
	positions := b.Positions[p.PoolID]
	for _, e := range p.Positions {
		if e.Deleted {
			delete(positions, e.ID)
			continue
		}
		positions[e.ID] = e
	}
	b.Reserves[p.PoolID] = PoolReserves{Reserve0: p.PoolReserve0, Reserve1: p.PoolReserve1}
}
