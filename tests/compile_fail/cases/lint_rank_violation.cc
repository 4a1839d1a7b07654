// expect-lint: lock-rank
//
// Locksmith: acquiring against the declared XST_LOCK_RANK hierarchy — the
// rank-10 store lock taken while the rank-20 latch is held — must be flagged
// by tools/xst_lint.py's lock-rank rule.
#include "src/common/sync.h"

class BadOrder {
 public:
  void Reacquire() {
    xst::MutexLock latch(&latch_);
    xst::MutexLock store(&mu_);  // rank 10 under rank 20: rejected
  }

 private:
  xst::Mutex mu_ XST_LOCK_RANK(10);
  xst::Mutex latch_ XST_LOCK_RANK(20);
};
