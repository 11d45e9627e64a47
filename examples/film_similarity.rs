//! Film similarity via covariance — the paper's Section 5 walkthrough.
//!
//! Computes how similar each of Lee's films is to every other film based on
//! ratings from California users, mixing relational operators (σ, ϑ, ρ, ⋈,
//! ×, π) with relational matrix operations (sub, tra, mmu) exactly as in
//! Figure 6.
//!
//! Run with: `cargo run --example film_similarity`

use rma::core::RmaContext;
use rma::relation::{
    aggregate, cross_product, join_on, natural_join, project, project_exprs, rename, select,
    AggSpec, Expr, RelationBuilder,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // the example database of Figure 5
    let users = RelationBuilder::new()
        .name("u")
        .column("User", vec!["Ann", "Tom", "Jan"])
        .column("State", vec!["CA", "FL", "CA"])
        .column("YoB", vec![1980i64, 1965, 1970])
        .build()?;
    let films = RelationBuilder::new()
        .name("f")
        .column("Title", vec!["Heat", "Balto", "Net"])
        .column("RelY", vec![1995i64, 1995, 1995])
        .column("Director", vec!["Lee", "Lee", "Smith"])
        .build()?;
    // film-title columns carry the context that later joins back to `films`
    let ratings = RelationBuilder::new()
        .name("r")
        .column("User", vec!["Ann", "Tom", "Jan"])
        .column("Balto", vec![2.0f64, 0.0, 1.0])
        .column("Heat", vec![1.5f64, 0.0, 4.0])
        .column("Net", vec![0.5f64, 1.5, 1.0])
        .build()?;

    let ctx = RmaContext::default();
    // the relational operators run on the context's session pool
    let pool = ctx.pool();

    // w1 = π_{U,B,H,N}(σ_{S='CA'}(u ⋈ r))
    let w1 = project(
        &select(
            &natural_join(&users, &ratings, pool)?,
            &Expr::col("State").eq(Expr::lit("CA")),
            pool,
        )?,
        &["User", "Balto", "Heat", "Net"],
    )?;
    println!("w1 (CA ratings):\n{w1}");

    // w2 = ϑ_{AVG(B),AVG(H),AVG(N)}(w1)
    let w2 = aggregate(
        &w1,
        &[],
        &[
            AggSpec::avg("Balto", "Balto"),
            AggSpec::avg("Heat", "Heat"),
            AggSpec::avg("Net", "Net"),
        ],
        pool,
    )?;

    // w3 = π_{U,B,H,N}(sub_{U;V}(w1, ρ_V(π_U(w1)) × w2))
    let user_list = rename(&project(&w1, &["User"])?, &[("User", "V")])?;
    let means = cross_product(&user_list, &w2)?;
    let w3 = project(
        &ctx.sub(&w1, &["User"], &means, &["V"])?,
        &["User", "Balto", "Heat", "Net"],
    )?;
    println!("w3 (centred ratings):\n{w3}");

    // w4 = tra_U(w3); w5 = mmu_{C;U}(w4, w3)
    let w4 = ctx.tra(&w3, &["User"])?;
    let w5 = ctx.mmu(&w4, &["C"], &w3, &["User"])?;

    // w6, w7: unbiased covariance — divide by (COUNT(*) − 1)
    let m = aggregate(&w1, &[], &[AggSpec::count_star("M")], pool)?;
    let w6 = cross_product(&w5, &m)?;
    let w7 = project_exprs(
        &w6,
        &[
            (Expr::col("C"), "C"),
            (
                Expr::col("Balto").div(Expr::col("M").sub(Expr::lit(1i64))),
                "Balto",
            ),
            (
                Expr::col("Heat").div(Expr::col("M").sub(Expr::lit(1i64))),
                "Heat",
            ),
            (
                Expr::col("Net").div(Expr::col("M").sub(Expr::lit(1i64))),
                "Net",
            ),
        ],
    )?;
    println!("w7 (covariance matrix with origins):\n{w7}");

    // w8 = π_{T,B,H,N}(σ_{D='Lee'}(w7 ⋈_{C=T} f))
    let w8 = project(
        &select(
            &join_on(&w7, &films, &[("C", "Title")], pool)?,
            &Expr::col("Director").eq(Expr::lit("Lee")),
            pool,
        )?,
        &["Title", "Balto", "Heat", "Net"],
    )?;
    println!("w8 (similarity of Lee's films):\n{w8}");

    // Verification against Figure 5's data: centred Balto ratings for the
    // CA users are ±0.5, so cov(Balto, Balto) = 0.5. (The paper's Figure 7
    // prints 1.56 in the Balto row, which is cov(Heat, Heat) for its
    // Figure 5 instance — the w3/w8 tables there swap the B and H columns;
    // we verify the mathematically consistent values.)
    let balto_row = select(&w8, &Expr::col("Title").eq(Expr::lit("Balto")), pool)?;
    let bb = balto_row.cell(0, "Balto")?.as_f64().unwrap();
    let bh = balto_row.cell(0, "Heat")?.as_f64().unwrap();
    assert!((bb - 0.5).abs() < 1e-9, "cov(Balto,Balto) = {bb}");
    assert!((bh - -1.25).abs() < 1e-9, "cov(Balto,Heat) = {bh}");
    let heat_row = select(&w8, &Expr::col("Title").eq(Expr::lit("Heat")), pool)?;
    let hh = heat_row.cell(0, "Heat")?.as_f64().unwrap();
    assert!((hh - 3.125).abs() < 1e-9, "cov(Heat,Heat) = {hh}");
    println!("cov(Balto,Balto) = {bb}, cov(Balto,Heat) = {bh}, cov(Heat,Heat) = {hh}");
    Ok(())
}
