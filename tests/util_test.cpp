#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/config.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace nfstrace {
namespace {

// ----------------------------------------------------------------- time

TEST(Time, EpochIsSundayMidnight) {
  EXPECT_EQ(dayOfWeek(0), 0);  // Sunday
  EXPECT_EQ(hourOfDay(0), 0);
  EXPECT_EQ(hourOfWeek(0), 0);
}

TEST(Time, DayOfWeekAdvances) {
  EXPECT_EQ(dayOfWeek(days(1)), 1);   // Monday
  EXPECT_EQ(dayOfWeek(days(6)), 6);   // Saturday
  EXPECT_EQ(dayOfWeek(days(7)), 0);   // wraps to Sunday
  EXPECT_EQ(dayOfWeek(days(7) + hours(23)), 0);
}

TEST(Time, HourOfDay) {
  EXPECT_EQ(hourOfDay(hours(9) + minutes(59)), 9);
  EXPECT_EQ(hourOfDay(days(3) + hours(17)), 17);
}

TEST(Time, PeakHoursDefinition) {
  // Monday 9am is peak; Monday 8:59 is not; Sunday noon is not.
  EXPECT_TRUE(isPeakHour(days(1) + hours(9)));
  EXPECT_TRUE(isPeakHour(days(5) + hours(17) + minutes(59)));
  EXPECT_FALSE(isPeakHour(days(1) + hours(8) + minutes(59)));
  EXPECT_FALSE(isPeakHour(days(1) + hours(18)));
  EXPECT_FALSE(isPeakHour(days(0) + hours(12)));  // Sunday
  EXPECT_FALSE(isPeakHour(days(6) + hours(12)));  // Saturday
}

TEST(Time, FormatTime) {
  EXPECT_EQ(formatTime(0), "Sun 00:00:00.000000");
  EXPECT_EQ(formatTime(days(2) + hours(14) + minutes(3) + seconds(7) + 12),
            "Tue 14:03:07.000012");
}

TEST(Time, ConversionHelpers) {
  EXPECT_EQ(seconds(1.5), 1'500'000);
  EXPECT_DOUBLE_EQ(toSeconds(minutes(2)), 120.0);
  EXPECT_EQ(kMicrosPerWeek, 7 * kMicrosPerDay);
}

// ------------------------------------------------------------------ rng

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowIsBounded) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) sawLo = true;
    if (v == 3) sawHi = true;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, PoissonMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(19);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(100.0));
  EXPECT_NEAR(sum / n, 100.0, 1.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  double sum = 0, sumSq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double v = rng.normal();
    sum += v;
    sumSq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumSq / n, 1.0, 0.03);
}

TEST(Rng, LognormalMedian) {
  Rng rng(29);
  int below = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.lognormal(std::log(42.0), 1.0) < 42.0) ++below;
  }
  EXPECT_NEAR(static_cast<double>(below) / n, 0.5, 0.02);
}

TEST(Rng, ParetoBounded) {
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ForkIndependence) {
  Rng a(41);
  Rng b = a.fork();
  // The fork must not replay the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(43);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Zipf, RanksInBounds) {
  Rng rng(47);
  ZipfSampler zipf(100, 1.0);
  for (int i = 0; i < 10000; ++i) {
    auto r = zipf.sample(rng);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 100u);
  }
}

TEST(Zipf, RankOneMostPopular) {
  Rng rng(53);
  ZipfSampler zipf(50, 1.2);
  std::vector<int> counts(51, 0);
  for (int i = 0; i < 100000; ++i) counts[zipf.sample(rng)]++;
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[1], counts[10] * 5);
}

TEST(Zipf, NonUnitExponent) {
  Rng rng(59);
  ZipfSampler zipf(1000, 0.8);
  std::uint64_t sum = 0;
  for (int i = 0; i < 10000; ++i) sum += zipf.sample(rng);
  // With s < 1 the tail carries real mass; the mean is far from 1.
  EXPECT_GT(sum / 10000, 50u);
}

// ------------------------------------------------------------ histogram

TEST(LogHistogram, QuantileInterpolation) {
  LogHistogram h(1.0, 2.0, 20);
  for (int i = 0; i < 1000; ++i) h.add(10.0);
  double q = h.quantile(0.5);
  EXPECT_GE(q, 8.0);
  EXPECT_LE(q, 16.0);
}

TEST(LogHistogram, CumulativeMonotone) {
  LogHistogram h(0.001, 2.0, 32);
  Rng rng(61);
  for (int i = 0; i < 5000; ++i) h.add(rng.lognormal(0.0, 2.0));
  double prev = 0;
  for (double x = 0.001; x < 1000; x *= 3) {
    double c = h.cumulativeAt(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_NEAR(h.cumulativeAt(1e9), 1.0, 1e-9);
}

TEST(LogHistogram, Underflow) {
  LogHistogram h(1.0, 2.0, 8);
  h.add(0.5);  // below base
  h.add(2.0);
  EXPECT_DOUBLE_EQ(h.totalWeight(), 2.0);
  EXPECT_NEAR(h.cumulativeAt(1.0), 0.5, 1e-9);
}

TEST(EmpiricalCdf, Quantiles) {
  EmpiricalCdf cdf;
  for (int i = 1; i <= 100; ++i) cdf.add(i);
  EXPECT_NEAR(cdf.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(cdf.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(cdf.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(cdf.fractionAtOrBelow(50.0), 0.5, 0.01);
  EXPECT_DOUBLE_EQ(cdf.mean(), 50.5);
}

TEST(EmpiricalCdf, Empty) {
  EmpiricalCdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.mean(), 0.0);
}

// ---------------------------------------------------------------- stats

TEST(RunningStats, MeanAndStddev) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_NEAR(s.stddevPercentOfMean(), 42.76, 0.1);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

// -------------------------------------------------------------- strings

TEST(Strings, Split) {
  auto parts = split("a/b//c", '/');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitEmpty) {
  auto parts = split("", '/');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, JoinInvertsSplit) {
  std::string s = "home/user/file.txt";
  EXPECT_EQ(join(split(s, '/'), '/'), s);
}

TEST(Strings, PercentEncodingRoundTripsEveryByte) {
  std::string all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<char>(b));
  std::string encoded;
  appendPercentEncoded(encoded, all);
  EXPECT_EQ(encoded.find_first_of(std::string(" \t\n=", 4)),
            std::string::npos);
  EXPECT_EQ(percentDecode(encoded), all);
  std::string name;
  appendPercentEncoded(name, "my file%.txt");
  EXPECT_EQ(name, "my%20file%25.txt");
  EXPECT_EQ(percentDecode("%7E%7e"), "~~");
  EXPECT_FALSE(percentDecode("50%").has_value());
  EXPECT_FALSE(percentDecode("%g0").has_value());
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(startsWith("Applet_42_Extern", "Applet_"));
  EXPECT_TRUE(endsWith("Applet_42_Extern", "_Extern"));
  EXPECT_FALSE(startsWith("ab", "abc"));
  EXPECT_FALSE(endsWith("ab", "abc"));
}

TEST(Strings, FilenameSuffix) {
  EXPECT_EQ(filenameSuffix("foo.c"), ".c");
  EXPECT_EQ(filenameSuffix("archive.tar.gz"), ".gz");
  EXPECT_EQ(filenameSuffix("noext"), "");
  // A leading dot is a hidden file, not a suffix.
  EXPECT_EQ(filenameSuffix(".pinerc"), "");
  EXPECT_EQ(filenameSuffix(".inbox.lock"), ".lock");
}

TEST(Strings, ToLower) { EXPECT_EQ(toLower("MiXeD"), "mixed"); }

// ---------------------------------------------------------------- table

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.addRow({"alpha", "1"});
  t.addRule();
  t.addRow({"b", "22"});
  std::string out = t.render();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22    |"), std::string::npos);
  // Header + top/bottom + mid rule = 4 rule lines.
  std::size_t rules = 0;
  for (const auto& line : split(out, '\n')) {
    if (!line.empty() && line[0] == '+') ++rules;
  }
  EXPECT_EQ(rules, 4u);
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(TextTable::fixed(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::percent(0.123), "12.3%");
  EXPECT_EQ(TextTable::withCommas(1234567), "1,234,567");
  EXPECT_EQ(TextTable::withCommas(12), "12");
}

// --------------------------------------------------------------- config

TEST(Config, ParsesKeyValues) {
  auto cfg = ConfigFile::parse(
      "# comment\n"
      "users = 42\n"
      "rate=1.5   # trailing comment\n"
      "\n"
      "name = hello world\n");
  EXPECT_EQ(cfg.getInt("users", 0), 42);
  EXPECT_DOUBLE_EQ(cfg.getDouble("rate", 0), 1.5);
  EXPECT_EQ(cfg.get("name", ""), "hello world");
  EXPECT_FALSE(cfg.has("missing"));
  EXPECT_EQ(cfg.getInt("missing", 7), 7);
}

TEST(Config, RepeatedKeysCollect) {
  auto cfg = ConfigFile::parse("keep = a\nkeep = b\nkeep = c\n");
  auto all = cfg.getAll("keep");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], "a");
  EXPECT_EQ(all[2], "c");
  // Scalar accessor: last wins.
  EXPECT_EQ(cfg.get("keep", ""), "c");
}

TEST(Config, Booleans) {
  auto cfg = ConfigFile::parse(
      "a = true\nb = no\nc = 1\nd = off\nbad = maybe\n");
  EXPECT_TRUE(cfg.getBool("a", false));
  EXPECT_FALSE(cfg.getBool("b", true));
  EXPECT_TRUE(cfg.getBool("c", false));
  EXPECT_FALSE(cfg.getBool("d", true));
  EXPECT_THROW(cfg.getBool("bad", false), std::runtime_error);
}

TEST(Config, MalformedLinesThrow) {
  EXPECT_THROW(ConfigFile::parse("no equals sign here\n"),
               std::runtime_error);
  EXPECT_THROW(ConfigFile::parse("= value without key\n"),
               std::runtime_error);
  EXPECT_THROW(ConfigFile::parse("n = abc\n").getInt("n", 0),
               std::runtime_error);
}

TEST(Config, MissingFileThrows) {
  EXPECT_THROW(ConfigFile::load("/no/such/config.cfg"), std::runtime_error);
}

TEST(Config, RejectsKeysNoReaderAskedFor) {
  auto cfg = ConfigFile::parse("users = 4\nkeep = a\nrate_typo = 1\n");
  cfg.getInt("users", 0);
  cfg.getAll("keep");
  cfg.getDouble("rate", 0.0);  // asked for, absent: not an error
  try {
    cfg.rejectUnknownKeys();
    ADD_FAILURE() << "a key no reader asked for was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rate_typo"), std::string::npos)
        << e.what();
  }
  cfg.has("rate_typo");
  EXPECT_NO_THROW(cfg.rejectUnknownKeys());
}

TEST(Config, UnsignedTakesOnlyAWholeDecimalInRange) {
  auto cfg = ConfigFile::parse(
      "ok = 25\nmax = 18446744073709551615\nneg = -5\nplus = +5\n"
      "word = abc\nfrac = 2.5\nover = 18446744073709551616\n"
      "empty =\nbig = 11\n");
  EXPECT_EQ(cfg.getUnsigned("ok", 0), 25u);
  EXPECT_EQ(cfg.getUnsigned("max", 0), ~0ull);
  EXPECT_EQ(cfg.getUnsigned("missing", 7), 7u);
  EXPECT_EQ(cfg.getUnsigned("big", 0, 11), 11u);
  for (const char* key : {"neg", "plus", "word", "frac", "over", "empty"}) {
    EXPECT_THROW(cfg.getUnsigned(key, 0), std::runtime_error) << key;
  }
  EXPECT_THROW(cfg.getUnsigned("big", 0, 10), std::runtime_error);
}

TEST(Config, DoubleRangeRejectsOutsideAndNonFinite) {
  auto cfg = ConfigFile::parse("h = 2.5\nneg = -1\nnan = nan\ninf = inf\n");
  EXPECT_DOUBLE_EQ(cfg.getDouble("h", 0.0, 0.0, 10.0), 2.5);
  EXPECT_THROW(cfg.getDouble("h", 0.0, 0.0, 2.0), std::runtime_error);
  EXPECT_THROW(cfg.getDouble("neg", 0.0, 0.0, 10.0), std::runtime_error);
  EXPECT_THROW(cfg.getDouble("nan", 0.0), std::runtime_error);
  EXPECT_THROW(cfg.getDouble("inf", 0.0), std::runtime_error);
}

TEST(Config, KeysListed) {
  auto cfg = ConfigFile::parse("b = 1\na = 2\n");
  auto keys = cfg.keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[1], "b");
}

}  // namespace
}  // namespace nfstrace
