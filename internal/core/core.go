// Package core implements the paper's primary contribution: the multi-user
// route navigation game of §3. It defines game instances (users, recommended
// routes, covered tasks), strategy profiles with incrementally-maintained
// participant counts, the profit function P_i (Eq. 2), the weighted
// potential function Φ (Eq. 8), and best/better response computation — the
// machinery Theorems 1–5 and Algorithms 1–3 are built on.
package core

import (
	"fmt"
	"math"

	"repro/internal/task"
)

// UserID identifies a user (vehicle driver) in an instance.
type UserID int

// Route is one recommended route for a specific user. Detour is h(r), the
// extra distance versus the user's shortest route (meters); Congestion is
// c(r), the congestion level of the route.
type Route struct {
	User       UserID
	Tasks      []task.ID // L_r: tasks covered by this route
	Detour     float64   // h(r) >= 0
	Congestion float64   // c(r) >= 0
}

// User holds one user's preference weights α_i, β_i, γ_i (Eq. 2) and its
// recommended route set R_i.
type User struct {
	ID                 UserID
	Alpha, Beta, Gamma float64
	Routes             []Route // R_i; every Route.User must equal ID
}

// Instance is a complete game: the users with their recommended routes, the
// task set, and the platform weights φ and θ.
type Instance struct {
	Users []User
	Tasks []task.Task
	// Phi and Theta are the platform-controlled weights of Eqs. (3)–(4).
	Phi, Theta float64
	// EMin and EMax bound the user weights (e_min < α,β,γ < e_max in §3.1);
	// they appear in the Theorem-4 convergence bound. Zero values mean
	// "derive from the instance".
	EMin, EMax float64
}

// NumUsers returns |U|.
func (in *Instance) NumUsers() int { return len(in.Users) }

// NumTasks returns |L|.
func (in *Instance) NumTasks() int { return len(in.Tasks) }

// WeightBounds returns (e_min, e_max): the configured bounds if set,
// otherwise the min/max over all user weights in the instance.
func (in *Instance) WeightBounds() (float64, float64) {
	if in.EMin > 0 && in.EMax > 0 {
		return in.EMin, in.EMax
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, u := range in.Users {
		for _, w := range [3]float64{u.Alpha, u.Beta, u.Gamma} {
			if w < lo {
				lo = w
			}
			if w > hi {
				hi = w
			}
		}
	}
	if math.IsInf(lo, 1) {
		return 0, 0
	}
	return lo, hi
}

// DetourCost returns d(r) = φ·h(r) (Eq. 3).
func (in *Instance) DetourCost(r Route) float64 { return in.Phi * r.Detour }

// CongestionCost returns b(r) = θ·c(r) (Eq. 4).
func (in *Instance) CongestionCost(r Route) float64 { return in.Theta * r.Congestion }

// Validate checks the structural invariants §3.1 assumes: positive user
// weights, at least one route per user, routes owned by their user, task IDs
// in range, valid task parameters, and φ, θ in (0,1).
func (in *Instance) Validate() error {
	if len(in.Users) == 0 {
		return fmt.Errorf("core: instance has no users")
	}
	if in.Phi <= 0 || in.Phi >= 1 {
		return fmt.Errorf("core: φ=%v outside (0,1)", in.Phi)
	}
	if in.Theta <= 0 || in.Theta >= 1 {
		return fmt.Errorf("core: θ=%v outside (0,1)", in.Theta)
	}
	for k, tk := range in.Tasks {
		if task.ID(k) != tk.ID {
			return fmt.Errorf("core: task %d stored at index %d", tk.ID, k)
		}
		if err := tk.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	// seen[k] == stamp marks task k as covered by the route being checked;
	// bumping stamp once per route clears every mark without touching seen,
	// so the whole pass allocates once however many routes there are.
	seen := make([]int32, len(in.Tasks))
	var stamp int32
	for i, u := range in.Users {
		if UserID(i) != u.ID {
			return fmt.Errorf("core: user %d stored at index %d", u.ID, i)
		}
		if u.Alpha <= 0 || u.Beta <= 0 || u.Gamma <= 0 {
			return fmt.Errorf("core: user %d has nonpositive weights α=%v β=%v γ=%v", u.ID, u.Alpha, u.Beta, u.Gamma)
		}
		if len(u.Routes) == 0 {
			return fmt.Errorf("core: user %d has an empty recommended route set", u.ID)
		}
		for ri, r := range u.Routes {
			if r.User != u.ID {
				return fmt.Errorf("core: user %d route %d owned by %d", u.ID, ri, r.User)
			}
			if r.Detour < 0 || r.Congestion < 0 {
				return fmt.Errorf("core: user %d route %d has negative detour/congestion", u.ID, ri)
			}
			stamp++
			for _, k := range r.Tasks {
				if int(k) < 0 || int(k) >= len(in.Tasks) {
					return fmt.Errorf("core: user %d route %d covers unknown task %d", u.ID, ri, k)
				}
				if seen[k] == stamp {
					return fmt.Errorf("core: user %d route %d covers task %d twice", u.ID, ri, k)
				}
				seen[k] = stamp
			}
		}
	}
	return nil
}

// Eps is the strict-improvement tolerance: a response must improve profit by
// more than Eps to count as a better response. A positive tolerance makes
// the finite-improvement property robust to floating-point noise.
const Eps = 1e-9
