package netmpi

import "repro/internal/core"

// Proc returns the endpoint as the engine's runtime contract, so
// core.MultiplyOn executes SummaGen over TCP. Network failures — a peer
// resetting, going silent past Config.OpTimeout, or sending a frame that
// fails its CRC — surface as a typed *PeerFailedError returned from the
// collectives, which the engine wraps with the failing stage and rank and
// returns to the caller; a lost peer is a clean error for the rank, never a
// deadlock, and the process supervisor owns recovery.
func (e *Endpoint) Proc() core.Proc { return e }
