package machine

// Head exposes the work queue's pop index to the external fork tests,
// which must fork while a queue has a popped prefix.
func (q *WorkQueue) Head() int { return q.head }
