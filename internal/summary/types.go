// Package summary implements ammBoost's layer-2 traffic summarization: the
// sidechain transaction formats, the epoch executor that processes swaps,
// mints, burns, and collects against the epoch's pool snapshot following
// the underlying AMM's own logic, and the Fig. 4 summary rules that fold an
// epoch's meta-blocks into the payout and liquidity-position lists carried
// by the Sync call.
package summary

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"strings"
	"time"

	"ammboost/internal/gasmodel"
	"ammboost/internal/u256"
)

// Tx is a sidechain AMM transaction. One struct covers all four offloaded
// kinds; unused fields are zero.
type Tx struct {
	ID   string
	Kind gasmodel.TxKind
	User string // issuer public key (also the trade recipient)
	// PoolID routes the transaction to a registered pool in multi-pool
	// deployments (internal/engine); empty means the deployment's single
	// canonical pool.
	PoolID string

	// Swap fields.
	ZeroForOne     bool     // sell token0 for token1
	ExactIn        bool     // Amount is input (true) or desired output
	Amount         u256.Int // exact input or exact output amount
	OutBound       u256.Int // min output (exact-in) or max input (exact-out) slippage bound; zero disables
	SqrtPriceLimit u256.Int // price limit; zero selects the widest
	DeadlineRound  uint64   // round after which the trade is invalid (0 = none)

	// Mint/burn/collect fields.
	PosID          string
	TickLower      int32
	TickUpper      int32
	Amount0Desired u256.Int // mint funding
	Amount1Desired u256.Int
	Liquidity      u256.Int // explicit burn amount
	// BurnFractionBps, when nonzero, burns that fraction of the
	// position's current liquidity in basis points (10000 = full burn);
	// generators use it because they cannot know live balances.
	BurnFractionBps uint32
	Collect0        u256.Int // collect requests
	Collect1        u256.Int

	// SizeBytes is the wire size used for block packing; zero means
	// "use the kind's default".
	SizeBytes int

	// SubmittedAt is the virtual submission time (for latency metrics).
	SubmittedAt time.Duration
}

// Size returns the wire size of the transaction in bytes.
func (tx *Tx) Size() int {
	if tx.SizeBytes > 0 {
		return tx.SizeBytes
	}
	// Defaults follow the paper's measured mainnet averages (Table VII).
	return gasmodel.MainnetTxBytes(tx.Kind)
}

// Hash returns a content hash for the transaction (used for position ID
// derivation and meta-block Merkle leaves). Variable-length fields are
// length-prefixed so adjacent fields cannot shift bytes between each
// other and collide. The fields are appended into one stack buffer and
// hashed in a single sha256.Sum256 call; a transaction whose fields
// outgrow the buffer spills to the heap and hashes the same bytes.
func (tx *Tx) Hash() [32]byte {
	var buf [256]byte
	b := binary.BigEndian.AppendUint32(buf[:0], uint32(len(tx.ID)))
	b = append(b, tx.ID...)
	b = append(b, byte(tx.Kind))
	b = binary.BigEndian.AppendUint32(b, uint32(len(tx.User)))
	b = append(b, tx.User...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(tx.PoolID)))
	b = append(b, tx.PoolID...)
	amt := tx.Amount.Bytes32()
	b = append(b, amt[:]...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(tx.PosID)))
	b = append(b, tx.PosID...)
	return sha256.Sum256(b)
}

// Deposit is a user's two-token epoch deposit balance, evolving on the
// sidechain as the user's transactions execute.
type Deposit struct {
	Amount0 u256.Int
	Amount1 u256.Int
}

// PayoutEntry is one row of the sync payout list: the user's updated
// deposit balance, paid out (and leftovers refunded) when TokenBank
// processes the Sync.
type PayoutEntry struct {
	User    string
	Amount0 u256.Int
	Amount1 u256.Int
}

// PositionEntry is one row of the sync liquidity-position list.
type PositionEntry struct {
	ID        string
	Owner     string
	TickLower int32
	TickUpper int32
	Liquidity u256.Int
	Fees0     u256.Int // uncollected fees / owed tokens
	Fees1     u256.Int
	Deleted   bool // fully withdrawn: TokenBank removes the entry
}

// SyncPayload is the full input to TokenBank.Sync for one epoch: the
// payout and position lists plus the updated pool reserves.
type SyncPayload struct {
	Epoch uint64
	// PoolID identifies the pool this payload summarizes in multi-pool
	// deployments.
	PoolID       string
	Payouts      []PayoutEntry
	Positions    []PositionEntry
	PoolReserve0 u256.Int
	PoolReserve1 u256.Int
	// NextGroupKey registers the next committee's verification key
	// (vk_c), authenticating the following epoch's Sync.
	NextGroupKey []byte
}

// SidechainBytes returns the binary-packed size of the payload as carried
// in a summary-block (97 B per payout, 215 B per position — Table IV).
func (p *SyncPayload) SidechainBytes() int {
	return gasmodel.SummaryBlockBytes(len(p.Payouts), len(p.Positions))
}

// MainchainBytes returns the ABI-encoded size of the Sync call on the
// mainchain (352 B per payout, 416 B per live position, 64 B per deletion,
// plus vk_c and the threshold signature — Table IV).
func (p *SyncPayload) MainchainBytes() int {
	live, deleted := 0, 0
	for _, e := range p.Positions {
		if e.Deleted {
			deleted++
		} else {
			live++
		}
	}
	return gasmodel.SyncTxBytes(len(p.Payouts), live) + deleted*gasmodel.ABIDeletedEntryBytes
}

// Digest hashes the payload content for TSQC signing. Entries are already
// in deterministic order (the executor sorts them).
func (p *SyncPayload) Digest() [32]byte {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], p.Epoch)
	h.Write(buf[:])
	// Variable-length fields are length-prefixed and each list is
	// count-prefixed, so neither adjacent fields nor the payout/position
	// boundary can shift bytes and collide (written inline so the string
	// conversions stay on the stack — see Tx.Hash).
	binary.BigEndian.PutUint32(buf[:4], uint32(len(p.Payouts)))
	h.Write(buf[:4])
	for _, e := range p.Payouts {
		binary.BigEndian.PutUint32(buf[:4], uint32(len(e.User)))
		h.Write(buf[:4])
		h.Write([]byte(e.User))
		a0, a1 := e.Amount0.Bytes32(), e.Amount1.Bytes32()
		h.Write(a0[:])
		h.Write(a1[:])
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(len(p.Positions)))
	h.Write(buf[:4])
	for _, e := range p.Positions {
		binary.BigEndian.PutUint32(buf[:4], uint32(len(e.ID)))
		h.Write(buf[:4])
		h.Write([]byte(e.ID))
		binary.BigEndian.PutUint32(buf[:4], uint32(len(e.Owner)))
		h.Write(buf[:4])
		h.Write([]byte(e.Owner))
		binary.BigEndian.PutUint32(buf[:4], uint32(e.TickLower))
		h.Write(buf[:4])
		binary.BigEndian.PutUint32(buf[:4], uint32(e.TickUpper))
		h.Write(buf[:4])
		l := e.Liquidity.Bytes32()
		h.Write(l[:])
		f0, f1 := e.Fees0.Bytes32(), e.Fees1.Bytes32()
		h.Write(f0[:])
		h.Write(f1[:])
		if e.Deleted {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	r0, r1 := p.PoolReserve0.Bytes32(), p.PoolReserve1.Bytes32()
	h.Write(r0[:])
	h.Write(r1[:])
	binary.BigEndian.PutUint32(buf[:4], uint32(len(p.PoolID)))
	h.Write(buf[:4])
	h.Write([]byte(p.PoolID))
	h.Write(p.NextGroupKey)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// EncodeBinary produces the sidechain binary packing of the payload. The
// encoding is the one whose per-entry sizes Table IV reports; tests pin
// them to the gasmodel constants.
func (p *SyncPayload) EncodeBinary() []byte {
	out := make([]byte, 0, p.SidechainBytes())
	var buf [16]byte
	put128 := func(v u256.Int) {
		b := v.Bytes32()
		out = append(out, b[16:]...)
	}
	var key [65]byte
	for _, e := range p.Payouts {
		fillKey(&key, e.User)
		out = append(out, key[:]...) // 65-byte uncompressed pubkey
		put128(e.Amount0)            // 16-byte token amounts
		put128(e.Amount1)
	}
	for _, e := range p.Positions {
		id := sha256.Sum256([]byte(e.ID))
		out = append(out, id[:]...) // 32-byte position id
		fillKey(&key, e.Owner)
		out = append(out, key[:]...) // 65-byte owner pubkey
		liq := e.Liquidity.Bytes32()
		out = append(out, liq[:]...) // 32-byte liquidity
		put128(e.Fees0)              // 16-byte fee balances
		put128(e.Fees1)
		binary.BigEndian.PutUint32(buf[:4], uint32(e.TickLower))
		out = append(out, buf[:4]...)
		binary.BigEndian.PutUint32(buf[:4], uint32(e.TickUpper))
		out = append(out, buf[:4]...)
		// 40-byte concentrated-liquidity extension block: room for the
		// sqrt ratios of the range bounds plus an 8-byte flag word.
		out = append(out, make([]byte, 40)...)
		meta := [6]byte{}
		if e.Deleted {
			meta[0] = 1
		}
		out = append(out, meta[:]...)
	}
	return out
}

// fillKey renders a user identifier as a 65-byte uncompressed public key
// in place (the encoder's per-entry hot path stays allocation-free).
func fillKey(out *[65]byte, user string) {
	out[0] = 0x04
	d := sha256.Sum256([]byte(user))
	copy(out[1:33], d[:])
	d2 := sha256.Sum256(d[:])
	copy(out[33:], d2[:])
}

// DerivePositionID generates the unique identifier for a freshly-minted
// position: the hash of the mint transaction and the LP's public key, as
// the paper specifies.
func DerivePositionID(txID, owner string) string {
	h := sha256.Sum256([]byte("pos|" + txID + "|" + owner))
	return hex.EncodeToString(h[:16])
}

// SortEntries puts payload entries into deterministic order (by user /
// position ID) so that every committee member derives an identical digest.
func (p *SyncPayload) SortEntries() {
	slices.SortFunc(p.Payouts, byUser)
	slices.SortFunc(p.Positions, byID)
}

func byUser(a, b PayoutEntry) int { return strings.Compare(a.User, b.User) }
func byID(a, b PositionEntry) int { return strings.Compare(a.ID, b.ID) }
