// Lock-order good fixture: both methods acquire ledger_ before audit_,
// so the TU contributes one consistent edge and `lock_graph.py
// selftest` must find no cycle. Also exercises the mid-scope unlock:
// releasing the outer guard before taking the second mutex contributes
// no edge at all.
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
class MutexLock {
 public:
  explicit MutexLock(Mutex &m);
  ~MutexLock();
  void lock();
  void unlock();
};
}  // namespace kc::compat

namespace kc {

class Account {
 public:
  void debit();
  void credit();
  void audit_only();

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
  compat::LockGuard ledger(ledger_);
  compat::LockGuard audit(audit_);
  balance_ += 1;
}

void Account::audit_only() {
  compat::MutexLock ledger(ledger_);
  balance_ += 0;
  ledger.unlock();
  // ledger_ no longer held: this acquisition has an empty held set.
  compat::LockGuard audit(audit_);
}

}  // namespace kc
