// Package gasmodel holds the Ethereum-calibrated cost model: gas constants
// for the EVM operations TokenBank and the baseline Uniswap deployment
// perform (Table II/III of the paper), and the byte-size model for
// mainchain ABI encoding versus sidechain binary packing (Table IV and the
// Table VII traffic analysis).
package gasmodel

// Gas constants, per the paper's Table II measurements (Tenderly gas
// profiler on Sepolia) and the EVM gas schedule.
const (
	// TxBaseGas is the intrinsic cost of any transaction.
	TxBaseGas uint64 = 21_000
	// SstoreWordGas is a cold storage write of one 32-byte word.
	SstoreWordGas uint64 = 22_100
	// SloadWordGas is a cold storage read.
	SloadWordGas uint64 = 2_100
	// SstoreClearGas is a storage clear (net of the EVM's clearing
	// refund); position deletions in Sync charge this per entry.
	SstoreClearGas uint64 = 5_000
	// PayoutEntryGas is TokenBank's constant fee per payout entry
	// (balance update + transfer bookkeeping).
	PayoutEntryGas uint64 = 15_771
	// KeccakBaseGas + KeccakWordGas*words is the Keccak256 cost.
	KeccakBaseGas uint64 = 30
	KeccakWordGas uint64 = 6
	// EcMulGas is the BN256 scalar multiplication precompile (EIP-196).
	EcMulGas uint64 = 6_000
	// PairingGas is the BN256 pairing check for one pair plus base
	// (EIP-197), as measured for the paper's BLS verification.
	PairingGas uint64 = 113_000
	// DepositTwoTokensGas is the measured total for a two-token deposit
	// (two ERC20 approvals + two transferFroms + TokenBank bookkeeping).
	DepositTwoTokensGas uint64 = 105_392
)

// PositionEntryWords is the TokenBank storage footprint of one liquidity
// position entry: 192 bytes = 6 words.
const PositionEntryWords = 6

// PoolBalanceWords is the storage footprint of the liquidity pool balance
// (two reserves occupying a 192-byte packed slot group, as measured).
const PoolBalanceWords = 6

// Baseline Uniswap V3 per-operation gas, Table III (measured means on
// Sepolia). The baseline contract charges these through itemized recipes
// in internal/baseline whose totals are pinned to land on these means.
const (
	UniswapSwapGas    uint64 = 160_601
	UniswapMintGas    uint64 = 435_610
	UniswapBurnGas    uint64 = 158_473
	UniswapCollectGas uint64 = 163_743
)

// KeccakGas returns the Keccak256 cost of hashing n bytes.
func KeccakGas(n int) uint64 {
	words := uint64((n + 31) / 32)
	return KeccakBaseGas + KeccakWordGas*words
}

// SstoreGas returns the cost of persisting n bytes as 32-byte words.
func SstoreGas(n int) uint64 {
	words := uint64((n + 31) / 32)
	return SstoreWordGas * words
}

// --- Byte-size model (Table IV and Table VII) ---

// Mainchain (ABI-encoded) entry sizes in bytes. Ethereum ABI packing pads
// every field to a 32-byte word and carries offset/length headers.
const (
	ABIPayoutEntryBytes   = 352 // 11 words: header, pubkey (3), token types (2), amounts (2), epoch, flags, padding
	ABIPositionEntryBytes = 416 // 13 words: header, id, owner (3), amounts (2), fees (2), ticks (2), liquidity, flags
	ABIGroupKeyBytes      = 128 // BN256 G2 point
	ABISignatureBytes     = 64  // BN256 G1 point
	// ABIDeletedEntryBytes is a position-deletion entry: the 32-byte ID
	// in one padded word plus a flag word.
	ABIDeletedEntryBytes = 64
)

// Sidechain (binary-packed) entry sizes in bytes.
const (
	SCPayoutEntryBytes   = 97  // 65-byte pubkey + 2×16-byte amounts
	SCPositionEntryBytes = 215 // 32 id + 65 owner + 32 liquidity + 2×16 fees + 2×4 ticks + 40 extension + 6 meta
)

// Baseline Uniswap transaction sizes on Sepolia (Table IV) — the simple
// router produces shorter calldata than mainnet's universal router.
const (
	SepoliaSwapTxBytes    = 365
	SepoliaMintTxBytes    = 566
	SepoliaBurnTxBytes    = 280
	SepoliaCollectTxBytes = 150
)

// Production Ethereum transaction sizes (Table VII, universal router).
const (
	MainnetSwapTxBytes    = 1008
	MainnetMintTxBytes    = 814
	MainnetBurnTxBytes    = 907
	MainnetCollectTxBytes = 922
)

// TxKind enumerates AMM operation types used across the workload, the
// sidechain executor, and the baselines.
type TxKind int

const (
	KindSwap TxKind = iota + 1
	KindMint
	KindBurn
	KindCollect
	KindFlash
	KindDeposit
	KindSync
)

// String implements fmt.Stringer.
func (k TxKind) String() string {
	switch k {
	case KindSwap:
		return "swap"
	case KindMint:
		return "mint"
	case KindBurn:
		return "burn"
	case KindCollect:
		return "collect"
	case KindFlash:
		return "flash"
	case KindDeposit:
		return "deposit"
	case KindSync:
		return "sync"
	default:
		return "unknown"
	}
}

// SepoliaTxBytes returns the Sepolia calldata size for an operation kind.
func SepoliaTxBytes(k TxKind) int {
	switch k {
	case KindSwap:
		return SepoliaSwapTxBytes
	case KindMint:
		return SepoliaMintTxBytes
	case KindBurn:
		return SepoliaBurnTxBytes
	case KindCollect:
		return SepoliaCollectTxBytes
	default:
		return 0
	}
}

// MainnetTxBytes returns the production-Ethereum size for an operation.
func MainnetTxBytes(k TxKind) int {
	switch k {
	case KindSwap:
		return MainnetSwapTxBytes
	case KindMint:
		return MainnetMintTxBytes
	case KindBurn:
		return MainnetBurnTxBytes
	case KindCollect:
		return MainnetCollectTxBytes
	default:
		return 0
	}
}

// UniswapOpGas returns the baseline per-operation gas.
func UniswapOpGas(k TxKind) uint64 {
	switch k {
	case KindSwap:
		return UniswapSwapGas
	case KindMint:
		return UniswapMintGas
	case KindBurn:
		return UniswapBurnGas
	case KindCollect:
		return UniswapCollectGas
	default:
		return 0
	}
}

// SyncAuthGas returns the TSQC verification cost for a summary payload of
// sumBytes: hash-to-point (Keccak over the summary + one ecMUL) plus the
// pairing check.
func SyncAuthGas(sumBytes int) uint64 {
	return KeccakGas(sumBytes) + EcMulGas + PairingGas
}

// SyncGas returns the full Sync call gas for an epoch summary with the
// given number of payout entries and position entries, plus the pool
// balance update and TSQC authentication.
func SyncGas(payouts, positions, sumBytes int) uint64 {
	gas := TxBaseGas
	gas += uint64(payouts) * PayoutEntryGas
	gas += uint64(positions) * PositionEntryWords * SstoreWordGas
	gas += PoolBalanceWords * SstoreWordGas
	gas += SyncAuthGas(sumBytes)
	return gas
}

// SyncTxBytes returns the mainchain byte footprint of a Sync call with the
// given entry counts (ABI encoding plus key/signature overhead).
func SyncTxBytes(payouts, positions int) int {
	return payouts*ABIPayoutEntryBytes + positions*ABIPositionEntryBytes +
		ABIGroupKeyBytes + ABISignatureBytes
}

// SummaryBlockBytes returns the sidechain byte footprint of a summary
// block with the given entry counts (binary packing plus a block header).
func SummaryBlockBytes(payouts, positions int) int {
	const headerBytes = 200 // parent hash, roots, epoch, signature
	return payouts*SCPayoutEntryBytes + positions*SCPositionEntryBytes + headerBytes
}
