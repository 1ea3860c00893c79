// Known-bad fixture for lint_options_used: `orphan_token_knob` is set by no
// test, bench or example (options_user.cc sets only `fanout` and `silent`).
namespace dfs {

class TokenManager {
 public:
  struct Options {
    size_t fanout = 4;
    // A knob nobody sets.
    size_t orphan_token_knob = 8;
    std::function<bool(HostId)> silent;  // parentheses inside template args
  };
};

}  // namespace dfs
