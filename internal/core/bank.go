package core

import (
	"errors"
	"fmt"
	"maps"
	"sort"

	"ammboost/internal/amm"
	"ammboost/internal/chain"
	"ammboost/internal/crypto/tsig"
	"ammboost/internal/engine"
	"ammboost/internal/mainchain"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// nodeBank is where an epoch's deposits come from, and the parity checks
// Validate runs. Two sit behind it, chosen by the constructor: poolBank
// (NewMultiSystem, NewMultiDriver, Open, Bootstrap and the federation)
// and paperBank (the paper's TokenBank and ERC20 pair; NewDriver). Every
// node syncs the same way, through its MultiBank (MultiSystem.mb), which
// the TokenBank embeds.
type nodeBank interface {
	// beginEpoch opens epoch e on the engine with the deposits the bank
	// holds for it.
	beginEpoch(e uint64) error
	// fundRound credits the deposits a round needs before its batch
	// executes.
	fundRound(e uint64, batch []queuedTx)
	// submitDeposit is chain.Chain.SubmitDeposit past its up-front checks.
	submitDeposit(user string, epoch uint64, amount0, amount1 u256.Int) (*chain.Receipt, error)
	// validate checks the bank's state against the engine's pools.
	validate() error
}

// depositPerUserPerPool funds a (user, pool) pair the first time the user
// trades on that pool in an epoch (2^40 per token).
var depositPerUserPerPool = u256.FromUint64(1 << 40)

// poolBank is MultiBank's accounting-level deposit source: a (user, pool)
// pair is funded on its first trade of an epoch.
type poolBank struct {
	s *MultiSystem

	// funded is one bitset per pool, of words uint64s each, marking the
	// (user, pool) pairs deposited this epoch by user index: pools ×
	// users bits, cleared each epoch.
	funded []uint64
	words  int
	// pendingDeposits holds explicit SubmitDeposit credits that arrived
	// between epochs; they apply at the next beginEpoch.
	pendingDeposits []pendingDeposit
}

// pendingDeposit is a user's explicit deposit awaiting its target epoch
// (or, for a deposit submitted between epochs, the next beginEpoch).
type pendingDeposit struct {
	epoch   uint64
	poolID  string
	user    string
	amount0 u256.Int
	amount1 u256.Int
	rc      *chain.Receipt
}

// newPoolBank deploys a MultiBank over the engine's pools with the
// epoch-1 committee key.
func newPoolBank(s *MultiSystem, genesis tsig.GroupKey) (nodeBank, *mainchain.MultiBank, error) {
	mb := mainchain.NewMultiBank(s.eng.PoolIDs(), genesis).
		WithAddress(mainchain.BankAddressFor(s.cfg.ChainID))
	seedBank(mb, s.eng)
	mb.Retain = s.cfg.RetainEpochs
	s.mc.Deploy(mb)
	words := (len(s.eng.Users().Names()) + 63) / 64
	return &poolBank{s: s, funded: make([]uint64, len(s.eng.PoolIDs())*words), words: words}, mb, nil
}

// seedBank registers every pool's deployment state with the bank: the
// reserves and the genesis position. A sync payload carries only the
// positions its epoch touched, so a pool that is never traded would
// otherwise never show the bank its genesis position.
func seedBank(bank *mainchain.MultiBank, eng *engine.Engine) {
	for _, pid := range eng.PoolIDs() {
		pool := eng.Pool(pid)
		bank.Reserves[pid] = mainchain.PoolReserves{Reserve0: pool.Reserve0, Reserve1: pool.Reserve1}
		for _, pos := range pool.Positions() {
			bank.Positions[pid][pos.ID] = positionEntry(pos)
		}
	}
}

// positionEntry is the bank's stored form of a live pool position.
func positionEntry(pos *amm.Position) summary.PositionEntry {
	return summary.PositionEntry{
		ID: pos.ID, Owner: pos.Owner,
		TickLower: pos.TickLower, TickUpper: pos.TickUpper,
		Liquidity: pos.Liquidity, Fees0: pos.TokensOwed0, Fees1: pos.TokensOwed1,
	}
}

// beginEpoch opens the epoch with no earmarks — (user, pool) deposits are
// credited on demand as the user's first trade on the pool arrives — and
// credits the explicit deposits held for it.
func (b *poolBank) beginEpoch(e uint64) error {
	clear(b.funded)
	if err := b.s.eng.BeginEpoch(e, nil); err != nil {
		return err
	}
	remaining := b.pendingDeposits[:0]
	for _, pd := range b.pendingDeposits {
		if pd.epoch > e {
			remaining = append(remaining, pd)
			continue
		}
		if err := b.s.eng.AddDeposit(pd.poolID, pd.user, pd.amount0, pd.amount1); err != nil {
			pd.rc.Status = chain.StatusRejected
			pd.rc.Err = err
			continue
		}
		pd.rc.Status = chain.StatusExecuted
		pd.rc.Epoch = e
		pd.rc.ExecutedAt = b.s.sim.Now()
	}
	b.pendingDeposits = remaining
	return nil
}

// fundRound credits first-touch deposits for the batch's (user, pool)
// pairs. The engine queues each credit until the worker that runs the
// pool's first transaction opens its executor, so the run loop opens no
// snapshots.
func (b *poolBank) fundRound(_ uint64, batch []queuedTx) {
	for _, q := range batch {
		w := &b.funded[int(q.ref.Pool)*b.words+int(q.ref.User/64)]
		bit := uint64(1) << (q.ref.User % 64)
		if *w&bit != 0 {
			continue
		}
		*w |= bit
		// Submit already rejected unknown pools, so this cannot fail.
		_ = b.s.eng.QueueDeposit(q.ref, depositPerUserPerPool, depositPerUserPerPool)
	}
}

// submitDeposit credits the deposit on the default pool: at once to the
// running snapshot for the current or a past epoch, or when its epoch
// opens. The receipt reaches StatusExecuted when the credit lands.
func (b *poolBank) submitDeposit(user string, epoch uint64, amount0, amount1 u256.Int) (*chain.Receipt, error) {
	s := b.s
	pid := s.eng.PoolIDs()[0]
	rc := &chain.Receipt{
		TxID: fmt.Sprintf("dep-%s-e%d", user, epoch), PoolID: pid,
		Status: chain.StatusPending, SubmittedAt: s.sim.Now(),
	}
	if epoch <= s.epoch {
		switch err := s.eng.AddDeposit(pid, user, amount0, amount1); {
		case err == nil:
			rc.Status = chain.StatusExecuted
			rc.Epoch = s.epoch
			rc.ExecutedAt = s.sim.Now()
			return rc, nil
		case !errors.Is(err, engine.ErrNoEpoch):
			return nil, err
		}
		// Between epochs: fall through and credit at the next beginEpoch.
	}
	b.pendingDeposits = append(b.pendingDeposits, pendingDeposit{
		epoch: epoch, poolID: pid, user: user, amount0: amount0, amount1: amount1, rc: rc,
	})
	return rc, nil
}

// validate checks every registered pool: the bank's stored reserves
// match the engine's canonical pool state, and the stored position lists
// mirror the pools' live positions.
func (b *poolBank) validate() error { return checkParity(b.s.eng, b.s.mb) }

// checkParity is the reserve and position parity check every node runs.
func checkParity(eng *engine.Engine, mb *mainchain.MultiBank) error {
	for _, pid := range eng.PoolIDs() {
		pool := eng.Pool(pid)
		res := mb.Reserves[pid]
		if !res.Reserve0.Eq(pool.Reserve0) || !res.Reserve1.Eq(pool.Reserve1) {
			return fmt.Errorf("%w: pool %s bank reserves %s/%s, engine %s/%s", ErrMultiParity,
				pid, res.Reserve0, res.Reserve1, pool.Reserve0, pool.Reserve1)
		}
		if err := checkPositions(pid, pool, mb.Positions[pid]); err != nil {
			return err
		}
	}
	return nil
}

// checkPositions reports a pool whose live positions and the bank's
// stored list differ in membership or liquidity.
func checkPositions(pid string, pool *amm.Pool, stored map[string]summary.PositionEntry) error {
	for _, pos := range pool.Positions() {
		entry, ok := stored[pos.ID]
		if !ok {
			return fmt.Errorf("%w: pool %s position %s missing from bank", ErrMultiParity, pid, pos.ID)
		}
		if !entry.Liquidity.Eq(pos.Liquidity) {
			return fmt.Errorf("%w: pool %s position %s liquidity bank=%s engine=%s",
				ErrMultiParity, pid, pos.ID, entry.Liquidity, pos.Liquidity)
		}
	}
	for id := range stored {
		if pool.Position(id) == nil {
			return fmt.Errorf("%w: pool %s bank position %s not live", ErrMultiParity, pid, id)
		}
	}
	return nil
}

// sortedPositions lists stored positions in ID order.
func sortedPositions(stored map[string]summary.PositionEntry) []summary.PositionEntry {
	ids := make([]string, 0, len(stored))
	for id := range stored {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]summary.PositionEntry, len(ids))
	for i, id := range ids {
		out[i] = stored[id]
	}
	return out
}

// paperBank is the paper's TokenBank behind the seam, on a one-pool node:
// users deposit on the mainchain (approve and deposit legs) for an epoch,
// and the epoch opens with the deposits the bank holds for it and credits
// later confirmations as deltas.
type paperBank struct {
	s      *MultiSystem
	pid    string
	token0 *mainchain.ERC20
	token1 *mainchain.ERC20
	tb     *mainchain.TokenBank

	approved map[string]bool // users who granted TokenBank allowances
	// seen is what the running epoch credited of each user's deposit.
	seen map[string]summary.Deposit
}

// paperUserGrant funds each user generously at genesis: a thousand
// epochs' deposits of 2e9 per token.
var paperUserGrant = u256.FromUint64(1000 * 2_000_000_000)

// newPaperBank deploys the ERC20 pair and TokenBank with the epoch-1
// committee key, hands the bank the genesis pool's reserves and position,
// and funds every user.
func newPaperBank(s *MultiSystem, genesis tsig.GroupKey) (nodeBank, *mainchain.MultiBank, error) {
	b := &paperBank{
		s:        s,
		pid:      s.eng.PoolIDs()[0],
		token0:   mainchain.NewERC20("A", "genesis"),
		token1:   mainchain.NewERC20("B", "genesis"),
		approved: make(map[string]bool),
	}
	s.mc.Deploy(b.token0)
	s.mc.Deploy(b.token1)
	b.tb = mainchain.NewTokenBank(b.token0, b.token1, b.pid, genesis)
	s.mc.Deploy(b.tb)
	pool := s.eng.Pool(b.pid)
	if err := b.token0.Ledger.Mint("genesis", mainchain.BankAddress, pool.Reserve0); err != nil {
		return nil, nil, err
	}
	if err := b.token1.Ledger.Mint("genesis", mainchain.BankAddress, pool.Reserve1); err != nil {
		return nil, nil, err
	}
	seedBank(b.tb.MultiBank, s.eng)
	if err := s.mc.Call(mainchain.BankAddress, "createPool", mainchain.CreatePoolArgs{FeePips: amm.GenesisFeePips}); err != nil {
		return nil, nil, err
	}
	for _, u := range s.eng.Users().Names() {
		if err := b.token0.Ledger.Mint("genesis", u, paperUserGrant); err != nil {
			return nil, nil, err
		}
		if err := b.token1.Ledger.Mint("genesis", u, paperUserGrant); err != nil {
			return nil, nil, err
		}
	}
	return b, b.tb.MultiBank, nil
}

// genesisDeposit seeds a user's epoch-1 deposit before the chain produces
// blocks, moving the tokens on the ledger without transactions; later
// epochs' deposits run the on-chain flow (submitDeposit).
func (b *paperBank) genesisDeposit(user string, amount0, amount1 u256.Int) error {
	if err := b.token0.Ledger.Transfer(user, mainchain.BankAddress, amount0); err != nil {
		return err
	}
	if err := b.token1.Ledger.Transfer(user, mainchain.BankAddress, amount1); err != nil {
		return err
	}
	return b.tb.CreditDeposit(1, user, amount0, amount1)
}

// beginEpoch is SnapshotBank: the epoch opens with the deposits TokenBank
// holds for it.
func (b *paperBank) beginEpoch(e uint64) error {
	deposits := b.tb.EpochDeposits(e)
	b.seen = maps.Clone(deposits)
	return b.s.eng.BeginEpoch(e, map[string]map[string]summary.Deposit{b.pid: deposits})
}

// fundRound credits deposits that confirmed on the mainchain after the
// epoch opened: the committee observes the bank's (monotone) epoch bucket
// and applies the delta, exactly once per token unit.
func (b *paperBank) fundRound(e uint64, _ []queuedTx) {
	for user, d := range b.tb.Deposits[e] {
		seen := b.seen[user]
		delta0, under0 := u256.SubUnderflow(d.Amount0, seen.Amount0)
		delta1, under1 := u256.SubUnderflow(d.Amount1, seen.Amount1)
		if under0 || under1 {
			continue // cannot happen: buckets only grow
		}
		if delta0.IsZero() && delta1.IsZero() {
			continue
		}
		if b.s.eng.AddDeposit(b.pid, user, delta0, delta1) == nil { // the bank's balance bounds it: no overflow
			b.seen[user] = d
		}
	}
}

// submitDeposit runs a user's deposit flow on the mainchain. A first-time
// depositor runs the full four-transaction chain (approve A -> approve B
// -> deposit A -> deposit B, sequentially dependent — the pattern behind
// the paper's ~4-block deposit latency); the approvals grant a max
// allowance once, as wallets commonly do, so later epochs need only the
// two deposit legs. The receipt jumps Pending → Synced when the final
// deposit leg confirms: mainchain confirmation is a deposit's finality.
func (b *paperBank) submitDeposit(user string, epoch uint64, amount0, amount1 u256.Int) (*chain.Receipt, error) {
	s := b.s
	base := fmt.Sprintf("dep-%s-e%d", user, epoch)
	submitted := s.sim.Now()
	rc := &chain.Receipt{TxID: base, Status: chain.StatusPending, Epoch: epoch, SubmittedAt: submitted}
	// Each leg depends on the one before it.
	var txs []*mainchain.Tx
	leg := func(suffix, to, method string, size int, args any) *mainchain.Tx {
		tx := &mainchain.Tx{ID: base + suffix, From: user, To: to, Method: method, Size: size, Args: args}
		if n := len(txs); n > 0 {
			tx.DependsOn = []string{txs[n-1].ID}
		}
		txs = append(txs, tx)
		return tx
	}
	firstTime := !b.approved[user]
	if firstTime {
		b.approved[user] = true
		approve := mainchain.ApproveArgs{Spender: mainchain.BankAddress, Amount: u256.Max}
		observe := func(tx *mainchain.Tx) { s.col.ObserveGas("approve", tx.GasUsed) }
		leg("-ap0", "A", "approve", 100, approve).OnConfirmed = observe
		leg("-ap1", "B", "approve", 100, approve).OnConfirmed = observe
	}
	d0 := leg("-d0", mainchain.BankAddress, "deposit", 160, mainchain.DepositArgs{Epoch: epoch, Amount0: amount0})
	d1 := leg("-d1", mainchain.BankAddress, "deposit", 160, mainchain.DepositArgs{Epoch: epoch, Amount1: amount1})
	var depositGas uint64
	d0.OnConfirmed = func(tx *mainchain.Tx) { depositGas += tx.GasUsed }
	latencyLabel := "deposit"
	if firstTime {
		// The paper's Table II measures the full two-approval flow.
		latencyLabel = "deposit-first"
	}
	d1.OnConfirmed = func(tx *mainchain.Tx) {
		if tx.Status != mainchain.TxConfirmed {
			rc.Status = chain.StatusRejected
			rc.Err = tx.Err
			return
		}
		depositGas += tx.GasUsed
		s.col.ObserveGas("deposit", depositGas)
		s.col.ObserveMCLatency(latencyLabel, tx.ConfirmedAt-submitted)
		rc.Status = chain.StatusSynced
		rc.ExecutedAt = tx.ConfirmedAt
		rc.SyncedAt = tx.ConfirmedAt
	}
	for _, tx := range txs {
		s.mc.Submit(tx)
	}
	return rc, nil
}

// validate is the shared parity check plus the paper's custody
// invariant: the bank's ERC20 balances cover the pool reserves.
func (b *paperBank) validate() error {
	if err := checkParity(b.s.eng, b.tb.MultiBank); err != nil {
		return err
	}
	res := b.tb.Reserves[b.pid]
	bank0 := b.token0.Ledger.BalanceOf(mainchain.BankAddress)
	bank1 := b.token1.Ledger.BalanceOf(mainchain.BankAddress)
	if bank0.Lt(res.Reserve0) || bank1.Lt(res.Reserve1) {
		return fmt.Errorf("%w: TokenBank holds %s/%s < pool reserves %s/%s", ErrMultiParity,
			bank0, bank1, res.Reserve0, res.Reserve1)
	}
	return nil
}
