// Input for CI's self-check of scripts/guard_sites.awk: the script must
// name free_function, member and one_liner as the functions around the
// three guarded_call lines. Never compiled.
namespace fixture {

void free_function(int n) {
  std::vector<char> touched(n);
  std::vector<std::size_t> slots(static_cast<std::size_t>(n),
                                 0);
  guarded_call(touched, slots);
}

class Holder {
 public:
  void member(int a,
              int b) {
    std::vector<int> local(a + b);
    guarded_call(local);
  }

  int one_liner() const { return guarded_call(1); }

  void declared_only(int x);
};

}  // namespace fixture
