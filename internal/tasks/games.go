package tasks

import (
	"fmt"
	"math"
	"math/rand"
)

// Minimax is the paper's flagship "complex routine" (§I mentions minimax
// and nqueens as decision-making algorithms that are cheap on flagship
// phones but expensive on old devices). It evaluates a tic-tac-toe-style
// m×m, k-in-a-row position with full-depth minimax search. The state is
// the board plus whose turn it is — exactly the application state a
// homogeneous offloading system would ship.
type Minimax struct{}

var _ Task = Minimax{}

// maxMinimaxM bounds the board side a state may claim, so that m*m cannot
// wrap past the length check; Generate plays 3×3.
const maxMinimaxM = 1 << 10

type minimaxState struct {
	// Board is row-major; 0 empty, 1 player X (maximizing), 2 player O.
	Board []int `json:"board"`
	M     int   `json:"m"`
	K     int   `json:"k"`
	Turn  int   `json:"turn"`
	// Depth limits the search depth (0 means full depth).
	Depth int `json:"depth"`
}

type minimaxResult struct {
	BestMove int `json:"bestMove"`
	Score    int `json:"score"`
}

// Name implements Task.
func (Minimax) Name() string { return "minimax" }

// Generate implements Task. The size parameter controls difficulty: it is
// the number of empty cells left on a 3×3 board, clamped to [2, 9]; the
// search tree grows factorially in it (9 empties ≈ 9! ≈ 3.6e5 nodes).
func (Minimax) Generate(r *rand.Rand, size int) (State, error) {
	if size < 0 {
		return State{}, fmt.Errorf("tasks: minimax size %d < 0", size)
	}
	m, k := 3, 3
	empties := size
	if empties < 2 {
		empties = 2
	}
	if empties > m*m {
		empties = m * m
	}
	board := make([]int, m*m)
	// Play (m*m - empties) alternating moves on random cells, producing a
	// legal mid-game position with X and O counts differing by at most 1.
	perm := r.Perm(m * m)
	player := 1
	for _, idx := range perm[:m*m-empties] {
		board[idx] = player
		player = 3 - player
	}
	return marshalState("minimax", size, minimaxState{
		Board: board, M: m, K: k, Turn: player,
	})
}

// Execute implements Task.
func (t Minimax) Execute(st State) (Result, error) { return execute(st, t.run) }

func (Minimax) run(a *arena, st State) (Result, error) {
	var in minimaxState
	if err := unmarshalState(a, st, "minimax", &in); err != nil {
		return Result{}, err
	}
	if in.M < 1 || in.M > maxMinimaxM || len(in.Board) != in.M*in.M {
		return Result{}, fmt.Errorf("tasks: minimax board %d cells for m=%d", len(in.Board), in.M)
	}
	if in.Turn != 1 && in.Turn != 2 {
		return Result{}, fmt.Errorf("tasks: minimax turn %d invalid", in.Turn)
	}
	e := &minimaxEngine{board: in.Board, m: in.M, k: in.K, maxDepth: in.Depth}
	score, move := e.search(in.Turn, 0)
	return marshalResult("minimax", e.ops, minimaxResult{BestMove: move, Score: score})
}

// Work implements Task. The full-depth game tree over e empty cells has
// roughly e! leaves; the engine prunes terminal wins, so e! tracks the
// measured operation counts up to a constant.
func (Minimax) Work(size int) float64 {
	e := size
	if e < 2 {
		e = 2
	}
	if e > 9 {
		e = 9
	}
	return math.Gamma(float64(e) + 1) // e!
}

type minimaxEngine struct {
	board    []int
	m, k     int
	maxDepth int
	ops      int64
}

// search returns (score, bestMove) for the player to move. Scores are +1
// if player 1 ultimately wins, -1 if player 2 wins, 0 for a draw.
func (e *minimaxEngine) search(turn, depth int) (int, int) {
	e.ops++
	if w := e.winner(); w != 0 {
		if w == 1 {
			return 1, -1
		}
		return -1, -1
	}
	full := true
	for _, c := range e.board {
		if c == 0 {
			full = false
			break
		}
	}
	if full || (e.maxDepth > 0 && depth >= e.maxDepth) {
		return 0, -1
	}
	bestMove := -1
	bestScore := 0
	if turn == 1 {
		bestScore = -2
	} else {
		bestScore = 2
	}
	for i, c := range e.board {
		if c != 0 {
			continue
		}
		e.board[i] = turn
		score, _ := e.search(3-turn, depth+1)
		e.board[i] = 0
		if turn == 1 && score > bestScore || turn == 2 && score < bestScore {
			bestScore = score
			bestMove = i
		}
	}
	return bestScore, bestMove
}

// winner scans for k in a row horizontally, vertically and diagonally.
func (e *minimaxEngine) winner() int {
	m, k := e.m, e.k
	at := func(r, c int) int { return e.board[r*m+c] }
	dirs := [4][2]int{{0, 1}, {1, 0}, {1, 1}, {1, -1}}
	for r := 0; r < m; r++ {
		for c := 0; c < m; c++ {
			p := at(r, c)
			if p == 0 {
				continue
			}
			for _, d := range dirs {
				rr, cc := r+(k-1)*d[0], c+(k-1)*d[1]
				if rr < 0 || rr >= m || cc < 0 || cc >= m {
					continue
				}
				run := true
				for s := 1; s < k; s++ {
					if at(r+s*d[0], c+s*d[1]) != p {
						run = false
						break
					}
				}
				if run {
					return p
				}
			}
		}
	}
	return 0
}

// NQueens counts all placements of n non-attacking queens via bitmask
// backtracking.
type NQueens struct{}

var _ Task = NQueens{}

type nqueensState struct {
	N int `json:"n"`
}

type nqueensResult struct {
	Solutions int64 `json:"solutions"`
}

// nqueensSolutions holds the known solution counts for validation.
var nqueensSolutions = map[int]int64{
	1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724,
	11: 2680, 12: 14200,
}

// Name implements Task.
func (NQueens) Name() string { return "nqueens" }

// Generate implements Task. Size is the board dimension, clamped into
// [4, 12] to keep single executions sub-second.
func (NQueens) Generate(_ *rand.Rand, size int) (State, error) {
	n := size
	if n < 4 {
		n = 4
	}
	if n > 12 {
		n = 12
	}
	return marshalState("nqueens", size, nqueensState{N: n})
}

// Execute implements Task.
func (t NQueens) Execute(st State) (Result, error) { return execute(st, t.run) }

func (NQueens) run(a *arena, st State) (Result, error) {
	var in nqueensState
	if err := unmarshalState(a, st, "nqueens", &in); err != nil {
		return Result{}, err
	}
	if in.N < 1 || in.N > 16 {
		return Result{}, fmt.Errorf("tasks: nqueens n=%d out of [1,16]", in.N)
	}
	var ops int64
	var count int64
	all := (1 << in.N) - 1
	var place func(cols, ld, rd int)
	place = func(cols, ld, rd int) {
		ops++
		if cols == all {
			count++
			return
		}
		free := all &^ (cols | ld | rd)
		for free != 0 {
			bit := free & -free
			free ^= bit
			place(cols|bit, (ld|bit)<<1&all, (rd|bit)>>1)
		}
	}
	place(0, 0, 0)
	return marshalResult("nqueens", ops, nqueensResult{Solutions: count})
}

// nqueensNodes holds the exact backtracking node counts (calls to place)
// for each board size; this *is* the task's operation count, so the Work
// model is exact.
var nqueensNodes = map[int]float64{
	4: 17, 5: 54, 6: 153, 7: 552, 8: 2057, 9: 8394, 10: 35539,
	11: 166926, 12: 856189,
}

// Work implements Task. The backtracking node count is known exactly per
// board size, so the model is a lookup.
func (NQueens) Work(size int) float64 {
	n := size
	if n < 4 {
		n = 4
	}
	if n > 12 {
		n = 12
	}
	return nqueensNodes[n]
}
