package summary

import (
	"math"
	"slices"

	"ammboost/internal/u256"
)

// Users numbers user names densely, in the order they are added. A node
// adds its whole user set once, in byte order, so index order is name
// order and its payout lists come out sorted without a sort. Lookup is
// safe from any goroutine while no name is being added.
type Users struct {
	names  []string
	index  map[string]uint32
	sorted bool // names are in increasing byte order
}

// NoUser is the index of a name a table lacks.
const NoUser uint32 = math.MaxUint32

// NewUsers returns a table numbering names in the order given.
func NewUsers(names ...string) *Users {
	t := &Users{index: make(map[string]uint32, len(names)), sorted: true}
	for _, n := range names {
		t.Add(n)
	}
	return t
}

// Add returns name's index, numbering a new name after every other.
func (t *Users) Add(name string) uint32 {
	if i, ok := t.index[name]; ok {
		return i
	}
	t.sorted = t.sorted && (len(t.names) == 0 || t.names[len(t.names)-1] < name)
	t.index[name] = uint32(len(t.names))
	t.names = append(t.names, name)
	return t.index[name]
}

// Lookup returns name's index, or NoUser when the table lacks it.
func (t *Users) Lookup(name string) uint32 {
	if i, ok := t.index[name]; ok {
		return i
	}
	return NoUser
}

// Names returns the names in index order; the caller must not write it.
func (t *Users) Names() []string { return t.names }

// Frozen returns a view of the table as it stands: Add on the table
// does not write it, so Names and payout lists may read it from another
// goroutine. Lookup on the view stays unsafe while the table grows.
func (t *Users) Frozen() *Users {
	u := *t
	return &u
}

// Ledger is one pool's epoch deposits by user index: one row per user
// with a deposit, in the order their first credits landed, and
// slot[u]-1 is user u's row (0: none). Both slices are pointer-free and
// grow by doubling: no user's deposit is a heap object of its own. rows
// is O(depositing users); slot is O(highest depositing user index).
type Ledger struct {
	slot []int32
	rows []Deposit
}

// get returns user u's deposit, or nil when u has none.
func (l *Ledger) get(u uint32) *Deposit {
	if u < uint32(len(l.slot)) && l.slot[u] > 0 {
		return &l.rows[l.slot[u]-1]
	}
	return nil
}

// Add credits user u's deposit, opening it at zero first; a credit that
// would overflow leaves the deposit as it was and fails with
// ErrDepositOverflow. u must be an index of the users table.
func (l *Ledger) Add(u uint32, amount0, amount1 u256.Int) (err error) {
	d := l.get(u)
	if d == nil {
		l.slot = append(l.slot, make([]int32, max(int(u)+1-len(l.slot), 0))...)
		l.rows = append(l.rows, Deposit{})
		l.slot[u], d = int32(len(l.rows)), &l.rows[len(l.rows)-1]
	}
	*d, err = d.Credit(amount0, amount1)
	return err
}

// Payouts lists the deposits as payout rows in user-index order: name
// order on a sorted table, and sorted by name on any other.
func (l Ledger) Payouts(users *Users) []PayoutEntry {
	if len(l.rows) == 0 {
		return nil
	}
	out := make([]PayoutEntry, 0, len(l.rows))
	for u, k := range l.slot {
		if k > 0 {
			out = append(out, PayoutEntry{User: users.names[u], Amount0: l.rows[k-1].Amount0, Amount1: l.rows[k-1].Amount1})
		}
	}
	if !users.sorted {
		slices.SortFunc(out, byUser)
	}
	return out
}
