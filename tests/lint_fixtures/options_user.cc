// Options user for the lint_options_used fixtures, placed under tests/.
// `orphan_knob` and `orphan_token_knob` are only read here, which does not
// count as setting them.
void Configure(dfs::CacheManager::Options& opts) {
  opts.used_knob = 1;
  opts.rpc.pool_threads = 2;
  int copy = opts.orphan_knob;
  (void)(opts.orphan_knob == copy);
}

void ConfigureTokens(dfs::TokenManager::Options& opts) {
  opts.fanout = 2;
  opts.silent = [](dfs::HostId) { return false; };
  (void)opts.orphan_token_knob;
}
