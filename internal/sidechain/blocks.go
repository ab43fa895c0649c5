// Package sidechain implements the AMM's dependent sidechain: temporary
// meta-blocks recording the processed transactions, permanent
// summary-blocks checkpointing each epoch's state changes, and the pruning
// rule that drops meta-blocks once their sync-transaction is confirmed on
// the mainchain — the mechanism behind ammBoost's state growth control.
package sidechain

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"time"

	"ammboost/internal/crypto/merkle"
	"ammboost/internal/summary"
)

// Ledger errors.
var (
	ErrNotChained      = errors.New("sidechain: block does not extend the ledger")
	ErrEpochMismatch   = errors.New("sidechain: block epoch out of order")
	ErrAlreadyPruned   = errors.New("sidechain: epoch already pruned")
	ErrUnknownEpoch    = errors.New("sidechain: unknown epoch")
	ErrSyncNotAnchored = errors.New("sidechain: cannot prune before sync confirmation")
)

// metaBlockHeaderBytes is the serialized header overhead of a meta-block
// (parent hash, tx root, round/epoch numbers, proposer, commit certificate).
const metaBlockHeaderBytes = 300

// MetaBlock is a temporary sidechain block holding processed transactions.
// It is discarded once the epoch's summary is anchored on the mainchain.
type MetaBlock struct {
	Epoch      uint64
	Round      uint64
	Proposer   string
	ParentHash [32]byte
	TxRoot     [32]byte
	Txs        []*summary.Tx
	SizeBytes  int
	MinedAt    time.Duration
	// CommitVotes is the number of committee votes backing the block
	// (>= 2f+2 for a committed block).
	CommitVotes int
}

// TxLeaf is a transaction's leaf hash in its meta-block's Merkle tree:
// the leaf hash of the transaction hash. It is the one rule for what a
// meta-block leaf is, so the engine's shards can hash the transactions
// they execute and the root still matches the proof path.
func TxLeaf(tx *summary.Tx) [32]byte { return merkle.HashLeaf32(tx.Hash()) }

// TxRoot is the reference meta-block transaction root: TxLeaf of each
// transaction in block order, folded into one root with a single scratch
// allocation. It equals merkle.New over the transaction hashes.
func TxRoot(txs []*summary.Tx) [32]byte {
	leaves := make([][32]byte, len(txs))
	for i, tx := range txs {
		leaves[i] = TxLeaf(tx)
	}
	return merkle.RootFromLeafHashes(leaves)
}

// NewMetaBlock assembles a meta-block over txs whose transaction root is
// txRoot (TxRoot(txs), or the same root folded from per-shard leaves),
// computing the wire size.
func NewMetaBlock(epoch, round uint64, proposer string, parent [32]byte, txs []*summary.Tx, txRoot [32]byte) *MetaBlock {
	size := metaBlockHeaderBytes
	for _, tx := range txs {
		size += tx.Size()
	}
	return &MetaBlock{
		Epoch:      epoch,
		Round:      round,
		Proposer:   proposer,
		ParentHash: parent,
		TxRoot:     txRoot,
		Txs:        txs,
		SizeBytes:  size,
	}
}

// Hash returns the block header hash.
func (b *MetaBlock) Hash() [32]byte {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], b.Epoch)
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], b.Round)
	h.Write(buf[:])
	h.Write([]byte(b.Proposer))
	h.Write(b.ParentHash[:])
	h.Write(b.TxRoot[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// SummaryBlock is a permanent checkpoint: the epoch's summary payload plus
// a commitment to the meta-blocks it summarizes, so pruned history remains
// verifiable against it.
type SummaryBlock struct {
	Epoch     uint64
	Payload   *summary.SyncPayload
	MetaRoot  [32]byte // Merkle root over the epoch's meta-block hashes
	NumMeta   int
	SizeBytes int
	MinedAt   time.Duration
}

// NewSummaryBlocks builds the permanent summaries over an epoch's
// meta-blocks, one per pool payload; they share the MetaRoot, which is
// computed once.
func NewSummaryBlocks(epoch uint64, payloads []*summary.SyncPayload, metas []*MetaBlock) []*SummaryBlock {
	hashes := make([][32]byte, len(metas))
	for i, m := range metas {
		hashes[i] = m.Hash()
	}
	metaRoot := merkle.New32(hashes)
	blocks := make([]*SummaryBlock, len(payloads))
	for i, payload := range payloads {
		blocks[i] = &SummaryBlock{
			Epoch:     epoch,
			Payload:   payload,
			MetaRoot:  metaRoot,
			NumMeta:   len(metas),
			SizeBytes: payload.SidechainBytes(),
		}
	}
	return blocks
}

// Ledger is the sidechain state: per-epoch meta-blocks (until pruned) and
// the permanent summary chain.
type Ledger struct {
	metasByEpoch map[uint64][]*MetaBlock
	summaries    []*SummaryBlock
	lastHash     [32]byte
	lastEpoch    uint64
	lastRound    uint64
	// retainSummaries bounds the in-memory summary window (0 = all).
	retainSummaries int

	// Growth accounting.
	liveMetaBytes    int
	summaryBytes     int
	prunedBytes      int // total bytes reclaimed by pruning
	peakBytes        int
	totalTxsRecorded int
}

// NewLedger creates an empty ledger whose genesis references the mainchain
// block carrying TokenBank.
func NewLedger(genesisRef [32]byte) *Ledger {
	return &Ledger{
		metasByEpoch: make(map[uint64][]*MetaBlock),
		lastHash:     genesisRef,
	}
}

// TipHash returns the hash the next meta-block must reference.
func (l *Ledger) TipHash() [32]byte { return l.lastHash }

// AppendMeta verifies chaining and records a committed meta-block.
func (l *Ledger) AppendMeta(b *MetaBlock) error {
	if b.ParentHash != l.lastHash {
		return ErrNotChained
	}
	if b.Epoch < l.lastEpoch {
		return ErrEpochMismatch
	}
	l.metasByEpoch[b.Epoch] = append(l.metasByEpoch[b.Epoch], b)
	l.lastHash = b.Hash()
	l.lastEpoch = b.Epoch
	l.lastRound = b.Round
	l.liveMetaBytes += b.SizeBytes
	l.totalTxsRecorded += len(b.Txs)
	if s := l.SizeBytes(); s > l.peakBytes {
		l.peakBytes = s
	}
	return nil
}

// AppendSummary records the permanent summary-block for an epoch.
func (l *Ledger) AppendSummary(sb *SummaryBlock) {
	l.summaries = append(l.summaries, sb)
	l.summaryBytes += sb.SizeBytes
	if s := l.SizeBytes(); s > l.peakBytes {
		l.peakBytes = s
	}
	if l.retainSummaries > 0 && sb.Epoch > uint64(l.retainSummaries) {
		horizon := sb.Epoch - uint64(l.retainSummaries)
		cut := 0
		for cut < len(l.summaries) && l.summaries[cut].Epoch <= horizon {
			cut++
		}
		if cut > 0 {
			// Copy so the dropped prefix's backing array (and its payload
			// pointers) are released; the byte accounting is untouched —
			// the chain itself retains summaries permanently, only this
			// process's window is bounded.
			l.summaries = append([]*SummaryBlock(nil), l.summaries[cut:]...)
		}
	}
}

// SetRetention bounds the in-memory summary history to epochs newer
// than the newest summary minus n (0 keeps everything). The summary
// chain is permanent on-chain; this bounds only what a long-running
// process keeps resident.
func (l *Ledger) SetRetention(n int) { l.retainSummaries = n }

// MetaBlocks returns the (unpruned) meta-blocks of an epoch.
func (l *Ledger) MetaBlocks(epoch uint64) []*MetaBlock {
	return l.metasByEpoch[epoch]
}

// Summaries returns the permanent summary chain.
func (l *Ledger) Summaries() []*SummaryBlock { return l.summaries }

// Prune drops the meta-blocks of an epoch after its sync-transaction is
// anchored. syncConfirmed must reflect mainchain confirmation; pruning
// before that would break public verifiability.
func (l *Ledger) Prune(epoch uint64, syncConfirmed bool) error {
	if !syncConfirmed {
		return ErrSyncNotAnchored
	}
	metas, ok := l.metasByEpoch[epoch]
	if !ok {
		return ErrAlreadyPruned
	}
	for _, m := range metas {
		l.liveMetaBytes -= m.SizeBytes
		l.prunedBytes += m.SizeBytes
	}
	delete(l.metasByEpoch, epoch)
	return nil
}

// SizeBytes is the current retained sidechain size (live meta-blocks plus
// permanent summaries).
func (l *Ledger) SizeBytes() int { return l.liveMetaBytes + l.summaryBytes }

// PeakBytes is the maximum retained size observed.
func (l *Ledger) PeakBytes() int { return l.peakBytes }

// PrunedBytes is the cumulative storage reclaimed by pruning.
func (l *Ledger) PrunedBytes() int { return l.prunedBytes }

// UnprunedBytes is what the chain would occupy had nothing been pruned
// (the "no pruning" ablation baseline).
func (l *Ledger) UnprunedBytes() int { return l.SizeBytes() + l.prunedBytes }

// TotalTxs is the number of transactions ever recorded in meta-blocks.
func (l *Ledger) TotalTxs() int { return l.totalTxsRecorded }

// VerifyTxInEpoch proves tx was recorded in the given (possibly live)
// epoch by checking its Merkle path against a meta-block, and that the
// meta-block is committed under the epoch's summary. Returns an error when
// the transaction cannot be located.
func (l *Ledger) VerifyTxInEpoch(tx *summary.Tx, epoch uint64) error {
	metas := l.metasByEpoch[epoch]
	want := tx.Hash()
	for _, m := range metas {
		for i, btx := range m.Txs {
			if btx.Hash() == want {
				leaves := make([][]byte, len(m.Txs))
				for j, lt := range m.Txs {
					h := lt.Hash()
					leaves[j] = h[:]
				}
				tree := merkle.New(leaves)
				proof, err := tree.Prove(i)
				if err != nil {
					return err
				}
				return merkle.Verify(m.TxRoot, want[:], proof)
			}
		}
	}
	return ErrUnknownEpoch
}
