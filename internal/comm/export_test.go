package comm

// Envs reports how many node envs the stack holds.
func (s *Stack) Envs() int { return len(s.nodes) }
