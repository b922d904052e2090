#include "sim/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace photorack::sim {
namespace {

TEST(TableTest, AlignsColumns) {
  Table t({"Name", "Value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "22"});
  const std::string out = t.to_string();
  // Header, rule, two rows.
  EXPECT_NE(out.find("Name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // Every line containing a value starts its column at the same offset:
  std::istringstream is(out);
  std::string header, rule, row1, row2;
  std::getline(is, header);
  std::getline(is, rule);
  std::getline(is, row1);
  std::getline(is, row2);
  EXPECT_EQ(header.find("Value"), row1.find("1"));
  EXPECT_EQ(header.find("Value"), row2.find("22"));
}

TEST(TableTest, ShortRowsArePadded) {
  Table t({"A", "B", "C"});
  t.add_row({"x"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_NO_THROW(t.to_string());
}

TEST(TableTest, EmptyHeadersThrow) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Formatting, Fixed) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(-1.0, 0), "-1");
}

TEST(Formatting, Percent) {
  EXPECT_EQ(fmt_pct(0.156), "15.6%");
  EXPECT_EQ(fmt_pct(1.0, 0), "100%");
}

TEST(Formatting, Scientific) {
  EXPECT_EQ(fmt_sci(1.5e-18, 1), "1.5e-18");
}

TEST(Formatting, Integer) {
  EXPECT_EQ(fmt_int(350), "350");
  EXPECT_EQ(fmt_int(-7), "-7");
}

}  // namespace
}  // namespace photorack::sim
