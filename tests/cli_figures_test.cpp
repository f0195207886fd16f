// `cellspot figures` and `cellspot generate` option checks, driven
// through the CLI binary: a bad --out is a usage error (exit 2) before
// any work, so no pipeline runs and the snapshot cache stays empty.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#ifndef CELLSPOT_CLI_BIN
#error "CELLSPOT_CLI_BIN must point at the cellspot binary"
#endif

namespace {

namespace fs = std::filesystem;

/// Exit code of `cellspot <command> --snapshot-dir S --out O`.
int Run(const std::string& command, const fs::path& snapshot_dir, const fs::path& out) {
  const std::string cmd = std::string(CELLSPOT_CLI_BIN) + " " + command +
                          " --snapshot-dir '" + snapshot_dir.string() + "' --out '" +
                          out.string() + "' >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int RunFigures(const fs::path& snapshot_dir, const fs::path& out) {
  return Run("figures --scale 0.01", snapshot_dir, out);
}

int RunGenerate(const fs::path& snapshot_dir, const fs::path& out) {
  return Run("generate --tiny", snapshot_dir, out);
}

fs::path FreshRoot(const std::string& tag) {
  const fs::path root =
      fs::path(testing::TempDir()) / ("cli_figures_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(root);
  fs::create_directories(root / "snapshots");
  return root;
}

TEST(CliFigures, MissingOutDirectoryIsAUsageErrorBeforeAnyWork) {
  const fs::path root = FreshRoot("missing");
  EXPECT_EQ(RunFigures(root / "snapshots", root / "does_not_exist"), 2);
  EXPECT_TRUE(fs::is_empty(root / "snapshots")) << "the pipeline ran before the check";
  EXPECT_FALSE(fs::exists(root / "does_not_exist"));
  fs::remove_all(root);
}

TEST(CliFigures, OutNamingAFileIsAUsageErrorBeforeAnyWork) {
  const fs::path root = FreshRoot("file");
  std::ofstream(root / "a_file") << "not a directory\n";
  EXPECT_EQ(RunFigures(root / "snapshots", root / "a_file"), 2);
  EXPECT_TRUE(fs::is_empty(root / "snapshots")) << "the pipeline ran before the check";
  fs::remove_all(root);
}

TEST(CliGenerate, MissingOutDirectoryIsAUsageErrorBeforeAnyWork) {
  const fs::path root = FreshRoot("generate_missing");
  EXPECT_EQ(RunGenerate(root / "snapshots", root / "does_not_exist"), 2);
  EXPECT_TRUE(fs::is_empty(root / "snapshots")) << "the world was generated before the check";
  EXPECT_FALSE(fs::exists(root / "does_not_exist"));
  fs::remove_all(root);
}

TEST(CliGenerate, OutNamingAFileIsAUsageErrorBeforeAnyWork) {
  const fs::path root = FreshRoot("generate_file");
  std::ofstream(root / "a_file") << "not a directory\n";
  EXPECT_EQ(RunGenerate(root / "snapshots", root / "a_file"), 2);
  EXPECT_TRUE(fs::is_empty(root / "snapshots")) << "the world was generated before the check";
  fs::remove_all(root);
}

}  // namespace
