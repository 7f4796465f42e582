// Lock-order bad fixture: two methods of one class acquire the same
// pair of mutexes in opposite orders — the classic ABBA deadlock.
// `lock_graph.py selftest` derives the two inverted edges and must
// report a cycle.
//
// Hermetic mocks: the extractor matches the guard spellings, not headers.
namespace kc::compat {
class Mutex {
 public:
  void lock();
  void unlock();
};
class LockGuard {
 public:
  explicit LockGuard(Mutex &m);
  ~LockGuard();
};
}  // namespace kc::compat

namespace kc {

class Account {
 public:
  void debit();
  void credit();

 private:
  compat::Mutex ledger_;
  compat::Mutex audit_;
  int balance_ = 0;
};

void Account::debit() {
  compat::LockGuard ledger(ledger_);
  compat::LockGuard audit(audit_);
  balance_ -= 1;
}

void Account::credit() {
  compat::LockGuard audit(audit_);
  compat::LockGuard ledger(ledger_);  // closes the cycle
  balance_ += 1;
}

}  // namespace kc
