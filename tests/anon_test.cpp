#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "anon/anon.hpp"

namespace nfstrace {
namespace {

Anonymizer makeAnon() { return Anonymizer{Anonymizer::Config{}}; }

TEST(Anon, ComponentConsistent) {
  auto anon = makeAnon();
  auto a1 = anon.anonymizeComponent("thesis.tex");
  auto a2 = anon.anonymizeComponent("thesis.tex");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, "thesis.tex");
}

TEST(Anon, DistinctNamesStayDistinct) {
  auto anon = makeAnon();
  EXPECT_NE(anon.anonymizeComponent("alpha.c"),
            anon.anonymizeComponent("beta.c"));
}

TEST(Anon, SharedSuffixSharedAnonForm) {
  auto anon = makeAnon();
  auto a = anon.anonymizeComponent("alpha.c");
  auto b = anon.anonymizeComponent("beta.c");
  // "all files that share the same suffix will have anonymized names that
  // end in the anonymized form of that suffix"
  auto suffixOf = [](const std::string& s) {
    return s.substr(s.rfind('.'));
  };
  EXPECT_EQ(suffixOf(a), suffixOf(b));
  auto c = anon.anonymizeComponent("gamma.h");
  EXPECT_NE(suffixOf(a), suffixOf(c));
}

TEST(Anon, SameStemDifferentSuffix) {
  auto anon = makeAnon();
  auto c = anon.anonymizeComponent("module.c");
  auto h = anon.anonymizeComponent("module.h");
  auto stemOf = [](const std::string& s) {
    return s.substr(0, s.rfind('.'));
  };
  EXPECT_EQ(stemOf(c), stemOf(h));
}

TEST(Anon, KeepListPassesThrough) {
  auto anon = makeAnon();
  EXPECT_EQ(anon.anonymizeComponent("CVS"), "CVS");
  EXPECT_EQ(anon.anonymizeComponent(".inbox"), ".inbox");
  EXPECT_EQ(anon.anonymizeComponent(".pinerc"), ".pinerc");
  EXPECT_EQ(anon.anonymizeComponent("lock"), "lock");
}

TEST(Anon, DotDotAndDotUnchanged) {
  auto anon = makeAnon();
  EXPECT_EQ(anon.anonymizeComponent("."), ".");
  EXPECT_EQ(anon.anonymizeComponent(".."), "..");
  EXPECT_EQ(anon.anonymizeComponent(""), "");
}

TEST(Anon, BackupSuffixRelationPreserved) {
  auto anon = makeAnon();
  auto plain = anon.anonymizeComponent("draft.txt");
  auto backup = anon.anonymizeComponent("draft.txt~");
  EXPECT_EQ(backup, plain + "~");
}

TEST(Anon, RcsSuffixRelationPreserved) {
  auto anon = makeAnon();
  auto plain = anon.anonymizeComponent("file.c");
  auto rcs = anon.anonymizeComponent("file.c,v");
  EXPECT_EQ(rcs, plain + ",v");
}

TEST(Anon, AutosavePrefixRelationPreserved) {
  auto anon = makeAnon();
  auto plain = anon.anonymizeComponent("notes.txt");
  auto autosave = anon.anonymizeComponent("#notes.txt#");
  EXPECT_EQ(autosave, "#" + plain + "#");
}

TEST(Anon, DotFilesKeepLeadingDot) {
  auto anon = makeAnon();
  auto a = anon.anonymizeComponent(".customrc");
  EXPECT_EQ(a[0], '.');
  EXPECT_NE(a, ".customrc");
}

TEST(Anon, KeepSuffixConfig) {
  auto anon = makeAnon();
  auto a = anon.anonymizeComponent("mailbox.lock");
  // The ".lock" suffix is on the keep list; the stem is anonymized.
  EXPECT_TRUE(a.size() > 5 && a.substr(a.size() - 5) == ".lock");
  EXPECT_NE(a, "mailbox.lock");
}

TEST(Anon, UidMappingConsistentAndKeepsRoot) {
  auto anon = makeAnon();
  EXPECT_EQ(anon.anonymizeUid(0), 0u);  // root kept
  EXPECT_EQ(anon.anonymizeUid(1), 1u);  // daemon kept
  auto u = anon.anonymizeUid(4242);
  EXPECT_NE(u, 4242u);
  EXPECT_EQ(anon.anonymizeUid(4242), u);
  EXPECT_NE(anon.anonymizeUid(4243), u);
}

TEST(Anon, IpMappingConsistent) {
  auto anon = makeAnon();
  IpAddr ip = makeIp(128, 103, 60, 15);
  auto a = anon.anonymizeIp(ip);
  EXPECT_NE(a, ip);
  EXPECT_EQ(anon.anonymizeIp(ip), a);
}

TEST(Anon, HandleMappingConsistentAndLengthPreserving) {
  auto anon = makeAnon();
  auto fh = FileHandle::make(1, 42, 7);
  auto a = anon.anonymizeHandle(fh);
  EXPECT_EQ(a.len, fh.len);
  EXPECT_FALSE(a == fh);
  EXPECT_EQ(anon.anonymizeHandle(fh), a);
}

TEST(Anon, NotDeterministicAcrossSeeds) {
  // Different seeds (different sites) must produce different mappings, so
  // traces cannot be cross-correlated — the reason hashing is not used.
  Anonymizer::Config c1, c2;
  c1.seed = 1;
  c2.seed = 2;
  Anonymizer a1{c1}, a2{c2};
  EXPECT_NE(a1.anonymizeComponent("secret.doc"),
            a2.anonymizeComponent("secret.doc"));
  EXPECT_NE(a1.anonymizeUid(5000), a2.anonymizeUid(5000));
}

TEST(Anon, RecordAnonymization) {
  auto anon = makeAnon();
  TraceRecord rec;
  rec.ts = 1000;
  rec.client = makeIp(128, 103, 1, 2);
  rec.server = makeIp(128, 103, 1, 3);
  rec.uid = 777;
  rec.gid = 88;
  rec.op = NfsOp::Lookup;
  rec.fh = FileHandle::make(1, 10, 1);
  rec.name = "secrets.xls";
  rec.hasReply = true;
  rec.hasResFh = true;
  rec.resFh = FileHandle::make(1, 11, 1);

  auto out = anon.anonymize(rec);
  EXPECT_EQ(out.ts, rec.ts);            // times untouched
  EXPECT_EQ(out.op, rec.op);            // semantics untouched
  EXPECT_NE(out.uid, rec.uid);
  EXPECT_NE(out.client, rec.client);
  EXPECT_NE(out.name, rec.name);
  EXPECT_FALSE(out.fh == rec.fh);
  EXPECT_FALSE(out.resFh == rec.resFh);

  // Same inputs -> same outputs on a second record.
  auto out2 = anon.anonymize(rec);
  EXPECT_EQ(out2.name, out.name);
  EXPECT_EQ(out2.uid, out.uid);
  EXPECT_TRUE(out2.fh == out.fh);
}

TEST(Anon, SymlinkTargetAnonymizedPerComponent) {
  auto anon = makeAnon();
  TraceRecord rec;
  rec.ts = 1;
  rec.op = NfsOp::Symlink;
  rec.fh = FileHandle::make(1, 1, 1);
  rec.name = "link";
  rec.name2 = "projects/secret/file.txt";
  auto out = anon.anonymize(rec);
  auto parts = out.name2;
  EXPECT_EQ(std::count(parts.begin(), parts.end(), '/'), 2);
  EXPECT_NE(out.name2, rec.name2);
}

TEST(Anon, OmissionMode) {
  Anonymizer::Config cfg;
  cfg.omitIdentities = true;
  Anonymizer anon{cfg};
  TraceRecord rec;
  rec.ts = 5;
  rec.op = NfsOp::Lookup;
  rec.uid = 777;
  rec.client = makeIp(1, 2, 3, 4);
  rec.name = "secret";
  auto out = anon.anonymize(rec);
  EXPECT_EQ(out.uid, 0u);
  EXPECT_EQ(out.client, 0u);
  EXPECT_TRUE(out.name.empty());
  EXPECT_EQ(out.op, NfsOp::Lookup);  // op preserved for analysis
}

std::string tempMapPath(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string(tag) + "_" + std::to_string(::getpid())))
      .string();
}

TEST(Anon, SaveLoadMapRoundTrip) {
  std::string path = tempMapPath("anon_map");
  Anonymizer::Config cfg;
  cfg.seed = 42;
  // Names with every byte a "kind key value" line could split on, and
  // one after them whose line a misparse would shift.
  const std::vector<std::string> names = {
      "research.dat", "my file.txt", "tab\there", "two\nlines", "100%.done",
      "report.dat"};
  const FileHandle fh = FileHandle::make(3, 77, 1);
  std::vector<std::string> namesMapped;
  std::uint32_t uidMapped;
  FileHandle fhMapped;
  {
    Anonymizer anon{cfg};
    for (const auto& n : names) {
      namesMapped.push_back(anon.anonymizeComponent(n));
    }
    uidMapped = anon.anonymizeUid(1234);
    fhMapped = anon.anonymizeHandle(fh);
    anon.saveMap(path);
  }
  {
    // A fresh anonymizer with a different seed but the saved map must
    // reproduce the earlier mapping (consistent continued captures).
    Anonymizer::Config cfg2;
    cfg2.seed = 999;
    Anonymizer anon{cfg2};
    anon.loadMap(path);
    for (std::size_t i = 0; i < names.size(); ++i) {
      EXPECT_EQ(anon.anonymizeComponent(names[i]), namesMapped[i]) << names[i];
    }
    EXPECT_EQ(anon.anonymizeUid(1234), uidMapped);
    EXPECT_EQ(anon.anonymizeHandle(fh), fhMapped);
    // The fileid token follows the loaded handle mapping too.
    TraceRecord rec;
    rec.fh = fh;
    rec.fileId = 5;
    EXPECT_EQ(anon.anonymize(rec).fileId,
              FileHandleHash{}(fhMapped) & 0xffffffff);
  }
  std::remove(path.c_str());
}

TEST(Anon, LoadMapRejectsMalformedLines) {
  std::string path = tempMapPath("anon_bad_map");
  for (const char* text :
       {"stem a%zz fabcd\n", "stem a b c\n", "uid x 10001\n",
        "gid 1 -5\n", "fh 0g 00\n"}) {
    {
      std::ofstream out(path);
      out << text;
    }
    Anonymizer anon{Anonymizer::Config{}};
    EXPECT_THROW(anon.loadMap(path), std::runtime_error) << text;
  }
  std::remove(path.c_str());
}

TEST(Anon, ConfigFromPolicyFile) {
  auto file = ConfigFile::parse(
      "keep_name = special.dat\n"
      "keep_name = .procmailrc\n"
      "keep_suffix = .mbox\n"
      "keep_uid = 0\n"
      "omit_identities = false\n"
      "seed = 777\n");
  auto cfg = Anonymizer::Config::fromConfig(file);
  EXPECT_EQ(cfg.seed, 777u);
  ASSERT_EQ(cfg.keepNames.size(), 2u);
  EXPECT_EQ(cfg.keepNames[0], "special.dat");
  ASSERT_EQ(cfg.keepSuffixes.size(), 1u);
  ASSERT_EQ(cfg.keepUids.size(), 1u);

  Anonymizer anon{cfg};
  EXPECT_EQ(anon.anonymizeComponent("special.dat"), "special.dat");
  EXPECT_EQ(anon.anonymizeComponent(".procmailrc"), ".procmailrc");
  auto mboxName = anon.anonymizeComponent("archive.mbox");
  EXPECT_TRUE(mboxName.size() > 5 &&
              mboxName.substr(mboxName.size() - 5) == ".mbox");
  EXPECT_NE(mboxName, "archive.mbox");
  // The default keep-list is replaced, so CVS is now anonymized.
  EXPECT_NE(anon.anonymizeComponent("CVS"), "CVS");
}

TEST(Anon, PolicyRejectsUnknownKeyNamingIt) {
  try {
    Anonymizer::Config::fromConfig(ConfigFile::parse("keep_nmae = CVS\n"));
    ADD_FAILURE() << "keep_nmae accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("keep_nmae"), std::string::npos)
        << e.what();
  }
}

TEST(Anon, PolicyRejectsNegativeOrNonNumericIdsNamingTheKey) {
  // Each value of a repeated key is checked: -1 once wrapped to
  // 4294967295 and a value past 32 bits was truncated.
  const std::pair<const char*, const char*> cases[] = {
      {"keep_uid = -1\n", "keep_uid"},
      {"keep_uid = 0\nkeep_uid = 4294967296\n", "keep_uid"},
      {"keep_gid = 0\nkeep_gid = abc\n", "keep_gid"},
      {"keep_gid = -1\nkeep_gid = 1\n", "keep_gid"},
      {"seed = -1\n", "seed"},
  };
  for (const auto& [text, key] : cases) {
    try {
      Anonymizer::Config::fromConfig(ConfigFile::parse(text));
      ADD_FAILURE() << text << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
  auto cfg = Anonymizer::Config::fromConfig(
      ConfigFile::parse("keep_uid = 4294967295\nkeep_gid = 7\n"));
  EXPECT_EQ(cfg.keepUids, std::vector<std::uint32_t>{4294967295u});
  EXPECT_EQ(cfg.keepGids, std::vector<std::uint32_t>{7u});
}

}  // namespace
}  // namespace nfstrace
