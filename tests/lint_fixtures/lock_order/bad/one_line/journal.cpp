// Lock-order bad fixture, one-line bodies: Journal::rotate calls
// settle() with journal_mutex_ held, and settle takes ledger_mutex_ in a
// one-line body (ledger.cpp), so journal_mutex_ -> ledger_mutex_: the
// reverse of ledger.cpp's edge. append_entry's guard, too, sits on the
// line that opens the function.
namespace kc::compat {
class Mutex {
 public:
  void lock();
  void unlock();
};
class LockGuard {
 public:
  explicit LockGuard(Mutex& m);
  ~LockGuard();
};
}  // namespace kc::compat

namespace kc {

void settle();

class Journal {
 public:
  void append_entry();
  void rotate();

 private:
  compat::Mutex journal_mutex_;
  int entries_ = 0;
};

void Journal::append_entry() { compat::LockGuard lock(journal_mutex_); }

void Journal::rotate() {
  compat::LockGuard lock(journal_mutex_);
  entries_ = 0;
  settle();
}

}  // namespace kc
